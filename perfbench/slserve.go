package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpslog/internal/ledger"
)

// slserve is one running slserve process on loopback.
type slserve struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // the process's exit error, valid after exited closes
}

// startServer launches bin with a fresh data directory and the given
// per-corpus budget, and returns once /readyz answers 200. The process's
// log goes to dataDir + ".log".
func startServer(bin, dataDir string, budget ledger.Budget) (*slserve, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-quiet",
		"-budget-epsilon", strconv.FormatFloat(budget.Epsilon, 'g', -1, 64),
		"-budget-delta", strconv.FormatFloat(budget.Delta, 'g', -1, 64),
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the kernel stops the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	startErr := cmd.Start()
	closeErr := logf.Close() // the child holds its own descriptor
	if startErr != nil {
		return nil, fmt.Errorf("start slserve: %w", startErr)
	}
	s := &slserve{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	if closeErr != nil {
		s.stop()
		return nil, closeErr
	}
	if err := s.waitReady(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// freeAddr picks a loopback port the kernel reports free.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func (s *slserve) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("slserve exited before becoming ready: %v", s.err)
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("slserve not ready after %s", limit)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func (s *slserve) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop shuts the server down gracefully, killing it if it has not exited
// within 15 seconds, and waits for the process to end.
func (s *slserve) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}
