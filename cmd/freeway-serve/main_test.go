package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"freewayml/internal/serve"
)

// TestCheckpointDirSurvivesRestart drives the built binary through the
// persistence its flags wire up: periodic and final checkpoints under
// -checkpoint-dir, the SIGTERM drain that writes the final ones, and the
// restore when the stream's id reappears after a restart.
func TestCheckpointDirSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the server binary")
	}
	bin := filepath.Join(t.TempDir(), "freeway-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-dim", "3", "-classes", "2",
		"-checkpoint-dir", dir, "-checkpoint-every", "2"}

	srv := startServer(t, bin, args)
	for i := 0; i < 4; i++ {
		postBatch(t, srv.base, i)
	}
	srv.stop(t)
	if _, err := os.Stat(filepath.Join(dir, "default.ckpt")); err != nil {
		t.Fatalf("no checkpoint after SIGTERM: %v", err)
	}

	srv = startServer(t, bin, args)
	postBatch(t, srv.base, 4)
	resp, err := http.Get(srv.base + "/v1/streams/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d, %v", resp.StatusCode, err)
	}
	if !st.Restored || st.Batches != 5 {
		t.Errorf("after restart: restored=%v batches=%d, want true and 5", st.Restored, st.Batches)
	}
	srv.stop(t)
}

// server is one running freeway-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

// startServer boots the binary and reads the address it prints; the process
// is killed at cleanup if the test did not stop it.
func startServer(t *testing.T, bin string, args []string) *server {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: exec.Command(bin, args...)}
	s.cmd.Stdout, s.cmd.Stderr = w, &s.stderr
	err = s.cmd.Start()
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
	})
	addr := make(chan string, 1)
	go func() { // reads stdout until the process exits
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- a
				io.Copy(io.Discard, r)
				return
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.cmd.Wait()
			t.Fatalf("server exited before listening: %s", s.stderr.String())
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		t.Fatal("server printed no address within 30s")
	}
	return s
}

// stop sends SIGTERM and requires a clean exit.
func (s *server) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, s.stderr.String())
	}
}

// postBatch trains the "default" stream on one labelled batch of 8 rows.
func postBatch(t *testing.T, base string, seed int) {
	t.Helper()
	var x [8][3]float64
	y := make([]int, len(x))
	for i := range x {
		y[i] = (i + seed) % 2
		x[i] = [3]float64{float64(2 * y[i]), float64(i%3) * 0.1, 0}
	}
	body, err := json.Marshal(map[string]any{"x": x, "y": y})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/streams/default/process", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch %d: status %d", seed, resp.StatusCode)
	}
}
