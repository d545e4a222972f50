package main

import (
	"example"
	"example/internal/plant"
)

func main() {
	plant.BenchOnly()
	var c plant.Config
	c.ByBench = 2
	_ = c
	example.RunOptions{}.Check()
}
