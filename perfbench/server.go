package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running parapll-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait returns
	addr   string
	log    string
	setup  time.Duration // launch to the first 200 from /readyz
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts the server with args plus -addr and waits until
// /readyz answers 200. The set-up time is what a user waits for the
// index: process start, graph load and index build.
func launch(ctx context.Context, bin, logPath string, args []string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{}), addr: addr, log: logPath}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop kills the child
		close(p.exited)
	}()
	for {
		resp, err := poll.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(t0)
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("server exited before it was ready; log:\n%s", tail(logPath))
		case <-ctx.Done():
			p.stop()
			return nil, fmt.Errorf("server not ready: %w; log:\n%s", ctx.Err(), tail(logPath))
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop terminates the server and waits until the process has exited.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return
	case <-time.After(5 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// cpuSeconds is the server's user plus system CPU time so far.
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in USER_HZ (100/s) ticks.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %v %v", p.cmd.Process.Pid, err1, err2)
	}
	return float64(utime+stime) / 100, nil
}

// stats fetches the server's /stats.
func (p *serverProc) stats(c *http.Client) (serverStats, error) {
	var st serverStats
	resp, err := c.Get("http://" + p.addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

type serverStats struct {
	Vertices int   `json:"vertices"`
	Entries  int64 `json:"entries"`
	Cache    *struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Wal *struct {
		Updates     int64 `json:"updates_total"`
		Compactions int64 `json:"compactions_total"`
	} `json:"wal"`
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
