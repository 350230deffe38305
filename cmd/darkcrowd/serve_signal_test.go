package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as the darkcrowd CLI: with
// DARKCROWD_RUN_MAIN=1 in the environment the process runs main() on its
// arguments instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("DARKCROWD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeSIGTERMRightAfterBoot sends SIGTERM to a real serve process the
// moment its "serving on" line appears. The handler must already be in
// place by then: the daemon drains, says so, flushes its -snapshot file
// and exits 0 instead of dying to the default signal action.
func TestServeSIGTERMRightAfterBoot(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM delivery is POSIX-only")
	}
	snap := filepath.Join(t.TempDir(), "state.dcs")
	cmd := exec.Command(os.Args[0], "serve",
		"-addr", "127.0.0.1:0",
		"-twitter-scale", "300",
		"-snapshot", snap,
	)
	cmd.Env = append(os.Environ(), "DARKCROWD_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A hung daemon must not outlive the test.
	watchdog := time.AfterFunc(2*time.Minute, func() { _ = cmd.Process.Kill() })
	defer watchdog.Stop()

	var out strings.Builder
	signalled := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		out.WriteString(line + "\n")
		if !signalled && strings.Contains(line, "serving on http://") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatalf("send SIGTERM: %v", err)
			}
			signalled = true
		}
	}
	err = cmd.Wait()
	if !signalled {
		t.Fatalf("daemon never printed its address (wait: %v)\nstdout:\n%s\nstderr:\n%s", err, out.String(), stderr.String())
	}
	if err != nil {
		t.Fatalf("daemon did not exit 0 after SIGTERM: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), stderr.String())
	}
	if !strings.Contains(out.String(), "shutting down...") {
		t.Fatalf("no drain message on stdout:\n%s", out.String())
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not written on shutdown: %v", err)
	}
}
