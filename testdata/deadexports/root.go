// Package example is the planted tree's root package, which the config
// guard scans like internal/.
package example

// RunOptions declares the root-package cases.
type RunOptions struct {
	// FromExamples is set in examples/demo: not flagged.
	FromExamples int
	// RootOnly is set only inside the root package: flagged.
	RootOnly int
}

func defaults() RunOptions { return RunOptions{RootOnly: 3} }
