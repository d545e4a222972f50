package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestFlagRanges pins that each flag detect narrows to a smaller integer
// exits 2 naming the flag at its maximum + 1, instead of wrapping to a
// different value. The test binary re-runs itself as detect, with the
// arguments in RUN_MAIN_ARGS.
func TestFlagRanges(t *testing.T) {
	if args := os.Getenv("RUN_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"detect"}, strings.Fields(args)...)
		main()
		return
	}
	for _, arg := range []string{"-from 4294967296", "-to 4294967296"} {
		// A regression would do the work (or serve): the deadline ends it.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFlagRanges$")
		cmd.Env = append(os.Environ(), "RUN_MAIN_ARGS=-store "+t.TempDir()+" "+arg)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), arg+" is out of range") {
			t.Errorf("detect %s: err %v, want exit code 2 naming the flag; stderr:\n%s", arg, err, stderr.String())
		}
	}
}
