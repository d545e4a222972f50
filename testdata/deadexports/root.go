// Package example is the planted tree's root package, which the config
// guard scans like internal/ and the export guard judges by its callers
// under cmd/, examples/ and bench/ alone.
package example

// RunOptions declares the root-package cases.
type RunOptions struct {
	// FromExamples is set in examples/demo: not flagged.
	FromExamples int
	// RootOnly is set only inside the root package: flagged.
	RootOnly int
}

func defaults() RunOptions { return RunOptions{RootOnly: 3, FromExamples: Internal()} }

// Run is called from examples/demo: not flagged.
func Run() {}

// Internal is called only inside the root package: flagged.
func Internal() int { return 0 }

// Check is called from bench/: not flagged.
func (RunOptions) Check() {}

// Stop is called from cmd/app: not flagged.
func (RunOptions) Stop() {}
