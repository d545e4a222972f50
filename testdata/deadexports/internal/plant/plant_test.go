package plant

import "testing"

func TestOnlyCaller(t *testing.T) { TestOnly() }
