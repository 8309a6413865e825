package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

const helperEnv = "PERFBENCH_TEARDOWN_HELPER"

// TestTeardownHelper is not a test on its own: re-executed by
// TestTeardownOnSIGTERM with helperEnv set to a scratch directory, it acts
// as a benchmark mid-run — teardown armed, the directory registered, a
// child process group started — and prints the child's pid.
func TestTeardownHelper(t *testing.T) {
	dir := os.Getenv(helperEnv)
	if dir == "" {
		t.Skip("helper process only")
	}
	teardown.install(time.Minute)
	teardown.dir(dir)
	c, err := startChild(filepath.Join(dir, "child.log"), "sleep", "60")
	if err != nil {
		fmt.Println("error", err)
		os.Exit(1)
	}
	fmt.Println("child", c.cmd.Process.Pid)
	select {} // the signal handler ends the process
}

// TestTeardownOnSIGTERM interrupts a benchmark mid-run with SIGTERM and
// checks that it exits, that no child process outlives it, and that its
// scratch directory is gone.
func TestTeardownOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	scratch := filepath.Join(dir, "run")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTeardownHelper$", "-test.v")
	cmd.Env = append(os.Environ(), helperEnv+"="+scratch)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	pid := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "child "); ok {
			pid, _ = strconv.Atoi(rest)
			break
		}
	}
	if pid == 0 {
		t.Fatal("helper did not report its child")
	}
	if err := syscall.Kill(pid, 0); err != nil {
		t.Fatalf("child %d not running before SIGTERM: %v", pid, err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = bufio.NewReader(out).WriteTo(new(strings.Builder)) }() // drain
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 128+int(syscall.SIGTERM) {
			t.Errorf("helper exit: %v, want code %d", err, 128+int(syscall.SIGTERM))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("helper did not exit after SIGTERM")
	}
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("child %d still exists after teardown (kill 0: %v)", pid, err)
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Errorf("scratch directory survived teardown: %v", err)
	}
}
