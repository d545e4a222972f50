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

// TestFlagRanges pins that each flag benchreport narrows to a smaller integer
// exits 2 naming the flag at its maximum + 1, instead of wrapping to a
// different value. The test binary re-runs itself as benchreport, with the
// arguments in RUN_MAIN_ARGS.
func TestFlagRanges(t *testing.T) {
	if args := os.Getenv("RUN_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"benchreport"}, strings.Fields(args)...)
		main()
		return
	}
	for _, arg := range []string{"-segment-format 65536"} {
		// A regression would do the work (or serve): the deadline ends it.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFlagRanges$")
		cmd.Env = append(os.Environ(), "RUN_MAIN_ARGS=-exp e1 -json= -md= "+arg)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), arg+" is out of range") {
			t.Errorf("benchreport %s: err %v, want exit code 2 naming the flag; stderr:\n%s", arg, err, stderr.String())
		}
	}
}
