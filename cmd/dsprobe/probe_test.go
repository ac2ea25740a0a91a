package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// probeModeEnv makes the test binary run dsprobe's main with the named
// flag instead of the tests, so a mode's fatalf and os.Exit act on a child
// process whose exit status and output the test inspects.
const probeModeEnv = "DSPROBE_TEST_MODE"

func TestMain(m *testing.M) {
	if mode := os.Getenv(probeModeEnv); mode != "" {
		os.Args = []string{"dsprobe", mode}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInProcessModes runs each in-process cluster mode end to end: it must
// exit 0 and end on its "verified" line.
func TestInProcessModes(t *testing.T) {
	for _, tc := range []struct{ flag, final string }{
		{"-cluster", "dsprobe: cluster forward/steal/shed cycle verified"},
		{"-membership", "dsprobe: kill/replica-serve/rejoin/drain-handoff cycle verified"},
		{"-partition", "dsprobe: partition/refusal/heal/anti-entropy cycle verified"},
	} {
		t.Run(tc.flag[1:], func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), probeModeEnv+"="+tc.flag)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("dsprobe %s: %v\nstdout:\n%s\nstderr:\n%s", tc.flag, err, out, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if last := lines[len(lines)-1]; last != tc.final {
				t.Errorf("dsprobe %s ended on %q, want %q\nstdout:\n%s", tc.flag, last, tc.final, out)
			}
		})
	}
}
