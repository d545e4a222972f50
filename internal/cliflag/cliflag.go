// Package cliflag holds what the command-line tools under cmd/ share
// about their flags.
package cliflag

import (
	"fmt"
	"os"
)

// Narrow returns the value v of flag -name as a T. A value T cannot
// hold would silently wrap to a different one, so Narrow instead prints
// "prog: -name v is out of range [0, max]" and exits 2, as the flag
// package does for a malformed value.
func Narrow[T uint16 | uint32, V int | uint](prog, name string, v V) T {
	if v < 0 || uint64(v) > uint64(^T(0)) {
		fmt.Fprintf(os.Stderr, "%s: -%s %d is out of range [0, %d]\n", prog, name, v, ^T(0))
		os.Exit(2)
	}
	return T(v)
}
