package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// sut is the system under test of one served workload: the child processes,
// the URL requests go to, and the stream ids the workload's streams use.
type sut struct {
	procs []*proc  // every freeway-serve worker, then the router if any
	base  string   // http://host:port of the entry point
	ids   []string // ids[i] is the server-side id of workload stream i
	tmp   string   // scratch directory (checkpoints), removed at stop
}

// bootSUT starts the workload's processes from the binaries in binDir and
// waits until the entry point reports ready. Servers run with default flags
// apart from the model family, the stream shape and an ephemeral port;
// extra is the ad-hoc pass-through for auditing opt-in server paths.
func bootSUT(w *workload, in []streamInput, binDir, tmpRoot string, extra []string) (s *sut, err error) {
	s = &sut{}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	serveArgs := append([]string{
		"-addr", "127.0.0.1:0", "-model", "mlp",
		"-dim", fmt.Sprint(in[0].dim), "-classes", fmt.Sprint(in[0].classes),
	}, extra...)
	workers := 1
	if w.topo == topoRouted {
		workers = 2
		if s.tmp, err = os.MkdirTemp(tmpRoot, "ckpt-"); err != nil {
			return s, err
		}
		serveArgs = append(serveArgs, "-checkpoint-dir", s.tmp)
	}
	for i := 0; i < workers; i++ {
		p, err := startProc(filepath.Join(binDir, "freeway-serve"), serveArgs...)
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, p)
	}
	entry := s.procs[0].addr
	if w.topo == topoRouted {
		addrs := []string{s.procs[0].addr, s.procs[1].addr}
		p, err := startProc(filepath.Join(binDir, "freeway-router"),
			"-addr", "127.0.0.1:0", "-workers", strings.Join(addrs, ","))
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, p)
		entry = p.addr
	}
	s.base = "http://" + entry
	for _, p := range s.procs {
		if err := waitReady("http://"+p.addr+"/v1/readyz", readyTimeout); err != nil {
			return s, err
		}
	}
	if w.topo == topoRouted {
		s.ids, err = s.placeStreams(w, in[0].infer[0], w.json)
	} else {
		for i := range w.datasets {
			s.ids = append(s.ids, fmt.Sprintf("s%d", i))
		}
	}
	return s, err
}

// placeStreams picks stream ids so that every stream of client c lives on
// worker c. Worker ports are ephemeral, so the router's hash ring — and with
// it which worker owns a given id — differs from boot to boot; fixing the
// placement keeps the topology, and so the numbers, the same on every run.
// Ownership is found from outside: one probe request per candidate id
// through the router, then each worker is asked whether it holds the id.
// Probe sessions are discarded, so every chosen stream starts fresh.
func (s *sut) placeStreams(w *workload, probeBody []byte, asJSON bool) ([]string, error) {
	ids := make([]string, len(w.datasets))
	need := [numClients]int{len(w.owners[0]), len(w.owners[1])}
	got := [numClients]int{}
	for cand := 0; got != need; cand++ {
		if cand >= 64 {
			return nil, errors.New("no balanced stream placement among 64 candidate ids")
		}
		id := fmt.Sprintf("s%d", cand)
		if err := post(s.base+"/v1/streams/"+id+"/infer", contentType(asJSON), probeBody); err != nil {
			return nil, err
		}
		owner := -1
		for wi := 0; wi < numClients; wi++ {
			resp, err := http.Get("http://" + s.procs[wi].addr + "/v1/streams/" + id + "/stats")
			if err != nil {
				return nil, err
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				owner = wi
			}
		}
		if owner < 0 {
			return nil, fmt.Errorf("stream %s is resident on no worker", id)
		}
		if err := post("http://"+s.procs[owner].addr+"/v1/streams/"+id+"/evict?checkpoint=false", "", nil); err != nil {
			return nil, err
		}
		if got[owner] < need[owner] {
			ids[w.owners[owner][got[owner]]] = id
			got[owner]++
		}
	}
	return ids, nil
}

func contentType(asJSON bool) string {
	if asJSON {
		return "application/json"
	}
	return "application/x-freeway-batch"
}

// post sends one set-up request outside any measurement and requires 200.
func post(url, ctype string, body []byte) error {
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, msg)
	}
	return nil
}

// stop shuts every process down, waits until each has been reaped and
// removes the scratch directory. It reports a process that had already
// died: the servers only exit on SIGTERM, so an early exit is a failure.
func (s *sut) stop() error {
	var err error
	for i := len(s.procs) - 1; i >= 0; i-- { // router first, then workers
		p := s.procs[i]
		if p.exited() {
			err = errors.Join(err, fmt.Errorf("%s exited early: %v\n%s", p.name, p.err, p.stderr.Bytes()))
		}
		p.stop()
	}
	s.procs = nil
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
	}
	return err
}

// usage is a point-in-time reading of the resources of the system under
// test: CPU seconds and context switches so far, and peak resident memory.
type usage struct {
	cpuSec, ctxSwitches, peakRSSMB float64
}

// usage sums the readings over the server processes.
func (s *sut) usage() (usage, error) {
	var u usage
	for _, p := range s.procs {
		pid := p.cmd.Process.Pid
		cpu, err := procCPUSeconds(pid)
		if err != nil {
			return u, err
		}
		rss, err := procPeakRSSMB(pid)
		if err != nil {
			return u, err
		}
		cs, err := procCtxSwitches(pid)
		if err != nil {
			return u, err
		}
		u.cpuSec += cpu
		u.peakRSSMB += rss
		u.ctxSwitches += cs
	}
	return u, nil
}

// selfUsage reads the same for the harness process itself, which is the
// system under test of the in-process workload and the load generator of
// the served ones.
func selfUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	rss, err := procPeakRSSMB(os.Getpid())
	return usage{
		cpuSec:      tv(ru.Utime) + tv(ru.Stime),
		ctxSwitches: float64(ru.Nvcsw + ru.Nivcsw),
		peakRSSMB:   rss,
	}, err
}
