package main

import example "example"

func main() {
	_ = example.RunOptions{FromExamples: 1}
	example.Run()
}
