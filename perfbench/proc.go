package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// reaper owns everything a run starts outside itself: child process
// groups and scratch directories. run kills every group, waits for each
// child to end and removes every directory; it is idempotent and is
// reached on every exit path — normal return, failed check, panic,
// SIGINT/SIGTERM and the watchdog.
type reaper struct {
	mu    sync.Mutex
	procs map[*child]struct{}
	dirs  []string
	done  bool
}

// teardown is the process-wide reaper: signals and the watchdog reach it
// from outside any call chain, so it cannot be a parameter.
var teardown = &reaper{procs: map[*child]struct{}{}}

// install arms the signal handler and the watchdog.
func (r *reaper) install(limit time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "perfbench: %v, tearing down\n", s)
		r.run()
		os.Exit(128 + int(s.(syscall.Signal)))
	}()
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, tearing down\n", limit)
		r.run()
		os.Exit(3)
	})
}

func (r *reaper) dir(d string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dirs = append(r.dirs, d)
}

func (r *reaper) add(c *child) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return false
	}
	r.procs[c] = struct{}{}
	return true
}

func (r *reaper) forget(c *child) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.procs, c)
}

func (r *reaper) run() {
	r.mu.Lock()
	r.done = true
	procs := make([]*child, 0, len(r.procs))
	for c := range r.procs {
		procs = append(procs, c)
	}
	r.procs = map[*child]struct{}{}
	dirs := r.dirs
	r.dirs = nil
	r.mu.Unlock()
	for _, c := range procs {
		c.kill()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort: nothing else can be done at exit
	}
}

// child is one started process, the leader of its own process group.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
	out  *os.File
}

// startChild starts name with args in a new process group that the kernel
// kills if this process dies, with output appended to logPath.
func startChild(logPath, name string, args ...string) (*child, error) {
	out, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = out, out
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, done: make(chan struct{}), out: out}
	if err := cmd.Start(); err != nil {
		out.Close()
		return nil, err
	}
	go c.wait()
	if !teardown.add(c) {
		// Teardown already ran (a signal arrived mid-start).
		c.kill()
		return nil, errors.New("perfbench: shutting down")
	}
	return c, nil
}

func (c *child) wait() {
	c.err = c.cmd.Wait()
	c.out.Close()
	close(c.done)
}

// kill SIGKILLs the child's whole process group and waits for the child
// to be reaped.
func (c *child) kill() {
	if !c.exited() {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: it just ended
	}
	<-c.done
	teardown.forget(c)
}

// exited reports whether the child has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// vmHWM returns the child's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("perfbench: no VmHWM in /proc status")
}

// server is one running egiserve.
type server struct {
	*child
	base string // http://127.0.0.1:port
}

// startServer execs egiserve with args on a fresh loopback port and
// returns once /healthz answers, with the time from exec to ready.
func startServer(b *bench, args []string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		t0 := time.Now()
		c, err := startChild(filepath.Join(b.work, "egiserve.log"), b.egiserve, append(append([]string(nil), args...), "-addr", addr)...)
		if err != nil {
			return nil, 0, err
		}
		s := &server{child: c, base: "http://" + addr}
		if err := s.awaitReady(30 * time.Second); err != nil {
			s.kill()
			lastErr = err
			continue // most likely the port was taken between probe and bind
		}
		return s, time.Since(t0), nil
	}
	log, _ := os.ReadFile(filepath.Join(b.work, "egiserve.log")) // for the message only
	return nil, 0, fmt.Errorf("starting egiserve: %w; its output: %s", lastErr, log[max(0, len(log)-2048):])
}

// awaitReady polls /healthz until it answers 200.
func (s *server) awaitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if s.exited() {
			return fmt.Errorf("egiserve exited: %v", s.err)
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return errors.New("egiserve not ready in time")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// runCold runs this binary in cold-child mode and returns its output and
// the wall time from exec to exit.
func runCold(b *bench, args ...string) (string, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return "", 0, err
	}
	log := filepath.Join(b.work, "cold.out")
	_ = os.Remove(log) // absent on the first call
	t0 := time.Now()
	c, err := startChild(log, self, append([]string{coldChildArg}, args...)...)
	if err != nil {
		return "", 0, err
	}
	select {
	case <-c.done:
	case <-time.After(60 * time.Second):
		c.kill()
		return "", 0, errors.New("cold child timed out")
	}
	d := time.Since(t0)
	teardown.forget(c)
	if c.err != nil {
		return "", 0, fmt.Errorf("cold child: %w", c.err)
	}
	out, err := os.ReadFile(log)
	return string(out), d, err
}
