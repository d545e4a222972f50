package plant

import "testing"

func TestOnlyCaller(t *testing.T) { TestOnly() }

func TestConfigCaller(t *testing.T) { _ = Config{ByTest: 1} }
