package cliflag

import "testing"

// TestNarrowInRange pins that values inside the target type pass
// through unchanged, up to its maximum; the commands' TestFlagRanges
// pin the exit at maximum + 1.
func TestNarrowInRange(t *testing.T) {
	if got := Narrow[uint16]("prog", "f", 65535); got != 65535 {
		t.Errorf("Narrow[uint16](65535) = %d", got)
	}
	if got := Narrow[uint32]("prog", "f", uint(4294967295)); got != 4294967295 {
		t.Errorf("Narrow[uint32](4294967295) = %d", got)
	}
	if got := Narrow[uint16]("prog", "f", 0); got != 0 {
		t.Errorf("Narrow[uint16](0) = %d", got)
	}
}
