package plant

// Config declares one field per case the config guard must judge.
type Config struct {
	// ByCmd is set in a composite literal in cmd/app: not flagged.
	ByCmd int
	// ByBench is assigned in bench/: not flagged.
	ByBench int
	// ByTest is set only in plant_test.go: flagged.
	ByTest int
	// ByOwnPackage is set only inside plant: flagged.
	ByOwnPackage int
	// Unset is set nowhere: flagged.
	Unset int
	// hidden is unexported: never flagged.
	hidden int
}

// Shape is no config struct, so its unset field is not flagged.
type Shape struct {
	Sides int
}

// innerConfig is unexported, so its unset field is not flagged.
type innerConfig struct {
	Knob int
}

func defaultConfig() Config {
	c := Config{ByOwnPackage: 1}
	c.hidden = 2
	return c
}
