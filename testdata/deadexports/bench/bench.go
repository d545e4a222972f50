package main

import "example/internal/plant"

func main() { plant.BenchOnly() }
