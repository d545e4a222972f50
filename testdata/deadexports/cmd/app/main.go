package main

import (
	"example"
	"example/internal/plant"
)

func main() {
	plant.Used()
	var x any = plant.Thing{}
	if a, ok := x.(interface{ Anon() }); ok {
		a.Anon()
	}
	_ = plant.Config{ByCmd: 1}
	example.RunOptions{}.Stop()
}
