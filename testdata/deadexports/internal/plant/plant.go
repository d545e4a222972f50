// Package plant declares one export per case the guard must judge.
package plant

// Thing carries the planted methods.
type Thing struct{}

// Unused is a method nothing calls: flagged.
func (Thing) Unused() {}

// Anon is reached only through an anonymous interface assertion in
// cmd/app: not flagged.
func (Thing) Anon() {}

// String is called through fmt.Stringer: never flagged.
func (Thing) String() string { return "thing" }

// Unused is a function nothing calls: flagged.
func Unused() {}

// TestOnly is called only from plant_test.go: flagged.
func TestOnly() {}

// BenchOnly is called only from bench/: not flagged.
func BenchOnly() {}

// Used is called from cmd/app: not flagged.
func Used() { helper() }

func helper() {}
