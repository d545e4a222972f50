package main

import "example/internal/plant"

func main() {
	plant.BenchOnly()
	var c plant.Config
	c.ByBench = 2
	_ = c
}
