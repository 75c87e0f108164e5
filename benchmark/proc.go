package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// proc is one child process under test. Both freeway-serve and
// freeway-router announce "listening on <addr>" on stdout once bound.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
	err  error         // exit status, valid after done

	mu     sync.Mutex
	stdout bytes.Buffer
	stderr bytes.Buffer
	addrCh chan string
}

// Write receives the child's stdout and picks out the bound address.
func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stdout.Write(b)
	if p.addrCh != nil {
		if m := listenRe.FindSubmatch(p.stdout.Bytes()); m != nil {
			p.addrCh <- string(m[1])
			p.addrCh = nil
		}
	}
	return len(b), nil
}

// startProc launches bin and returns once it announced its address.
func startProc(bin string, args ...string) (*proc, error) {
	addrCh := make(chan string, 1)
	p := &proc{name: filepath.Base(bin), cmd: exec.Command(bin, args...), done: make(chan struct{}), addrCh: addrCh}
	p.cmd.Stdout = p
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", p.name, p.err, p.stderr.Bytes())
	case <-time.After(15 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s never announced its address", p.name)
	}
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down (SIGTERM, then SIGKILL after 10 s) and
// returns once it has been reaped.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// waitReady polls a readiness endpoint until it answers 200.
func waitReady(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (last error: %v)", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clockTick is USER_HZ: the unit of the CPU times in /proc/<pid>/stat, fixed
// at 100 on every Linux ABI.
const clockTick = 100

// procCPUSeconds reads user+system CPU time consumed so far by pid.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may itself contain
	// spaces or parentheses; the numeric fields start after the last ")".
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	fields := strings.Fields(string(data[i+1:]))
	// fields[0] is field 3 (state), so utime (14) and stime (15) are 11, 12.
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed CPU times in /proc stat line")
	}
	return (utime + stime) / clockTick, nil
}

// statusFields sums the numeric values of the named "Key:\t<n> ..." lines of
// a /proc status file; every key must be present.
func statusFields(path string, keys ...string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var total float64
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok || !slices.Contains(keys, key) {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %s: %w", path, key, err)
		}
		total += v
		found++
	}
	if found != len(keys) {
		return 0, fmt.Errorf("%s: missing one of %v", path, keys)
	}
	return total, nil
}

// procPeakRSSMB reads the peak resident set size (VmHWM) of pid in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	kb, err := statusFields(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return kb / 1024, err
}

// procCtxSwitches sums voluntary and involuntary context switches over every
// thread of pid (the per-process status file only covers the main thread).
func procCtxSwitches(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no tasks for pid %d", pid)
	}
	var total float64
	for _, t := range tasks {
		v, err := statusFields(t, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
		if err != nil {
			continue // a thread may exit between Glob and the read
		}
		total += v
	}
	return total, nil
}
