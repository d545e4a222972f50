// Command tool plants one flag conversion per case the narrowing guard
// must judge.
package main

import "flag"

func main() {
	var (
		port  = flag.Int("port", 0, "")
		lag   = flag.Uint("lag", 0, "")
		count = flag.Int64("count", 0, "")
	)
	width := flag.Uint("width", 0, "")
	_ = uint16(*port)  // an int flag narrowed: flagged
	_ = uint32(*width) // a uint flag narrowed: flagged
	_ = uint64(*lag)   // widened: not flagged
	_ = int(*count)    // int is 64 bits wide here: not flagged
	n := 5
	p := &n
	_ = uint16(*p) // not a flag: not flagged
}
