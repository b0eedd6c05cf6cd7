package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a program process the benchmark started. Its output goes to
// a log file under the work directory.
type child struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// startChild starts bin with args, logging stdout and stderr to
// logPath, and waits until the log matches ready (returning the first
// submatch of each pattern in order).
func startChild(bin string, args []string, logPath string, ready []*regexp.Regexp, timeout time.Duration) (*child, []string, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	c := &child{cmd: cmd, log: f, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	deadline := time.Now().Add(timeout)
	for {
		data, _ := os.ReadFile(logPath)
		subs := make([]string, 0, len(ready))
		for _, re := range ready {
			m := re.FindSubmatch(data)
			if m == nil {
				break
			}
			subs = append(subs, string(m[1]))
		}
		if len(subs) == len(ready) {
			return c, subs, nil
		}
		select {
		case err := <-c.done:
			c.done <- err
			c.stop()
			return nil, nil, fmt.Errorf("%s exited during start-up (%v): %s", filepath.Base(bin), err, tail(data))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, nil, fmt.Errorf("%s not ready after %v: %s", filepath.Base(bin), timeout, tail(data))
		}
	}
}

func tail(b []byte) string {
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func (c *child) peakRSSMB() float64 { return vmHWM(c.cmd.Process.Pid) }

// stop terminates the process and waits until it has exited.
func (c *child) stop() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
}

// resetPeakRSS restarts pid's VmHWM from its current RSS (clear_refs
// 5), so that a later read covers only what follows.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// vmHWM returns /proc/<pid>/status VmHWM in MB (0 when unreadable).
func vmHWM(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) float64 {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// freePort returns a loopback address with a port that was free a
// moment ago.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// waitTCP dials addr until it accepts a connection or ctx ends.
func waitTCP(ctx context.Context, addr string) error {
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", addr, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cpuStat is the aggregate line of /proc/stat, in jiffies.
type cpuStat struct{ total, idle, steal uint64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		st.total += v
		switch i {
		case 3, 4: // idle, iowait
			st.idle += v
		case 7:
			st.steal = v
		}
	}
	return st
}
