package main

import (
	"encoding/json"
	"fmt"

	"freewayml/internal/datasets"
	"freewayml/internal/serve"
	"freewayml/internal/stream"
	"freewayml/internal/wire"
)

// numClients is the closed-loop client count of every workload: one client
// goroutine (and, for served workloads, one keep-alive connection) per CPU
// of the 2-CPU host the counts below were calibrated on.
const numClients = 2

// Topologies a workload can run against.
const (
	topoInProcess = iota // the harness calls core.Learner directly
	topoServe            // one freeway-serve child process
	topoRouted           // freeway-router in front of two freeway-serve workers
)

// workload is one frozen closed-loop traffic mix: which streams exist, who
// drives them and in what fixed request order. --seconds only decides how far
// down that order a run gets.
type workload struct {
	name     string
	topo     int
	json     bool     // JSON bodies instead of binary f64 frames
	batch    int      // rows per request
	datasets []string // one stream per entry

	// owners[c] lists the streams client c drives, visited round-robin.
	// A stream's labelled batches are sent by exactly one client, one at a
	// time, so every learner sees its batches in order and g_acc/si repeat.
	owners [numClients][]int
	// cycle[c] is the fixed per-stream request cycle of client c: true is a
	// label-less infer of the stream's next batch, false the labelled
	// process call that consumes it.
	cycle [numClients][]bool

	// warmOps[c] requests of client c run inside setup, on the same streams
	// and schedule the timed phase then continues. (For the in-process
	// workload: batches per stream, on learners that are then discarded.)
	// They are sized so that one set-up takes about a second.
	warmOps [numClients]int
	// scored is how many labelled batches per stream, from the start of the
	// timed phase, g_acc and si are computed over. It is about half of what
	// a 20 s run completed on the introducing commit (nproc = 2), so every
	// run reaches it and the two metrics always cover the same batches.
	// 0 stands for one full schedule of the stream.
	scored int
}

// The served workloads all stream the NSL-KDD generator: freeway-serve fixes
// one (dim, classes) shape per process, and NSL-KDD's schedule has the most
// reoccurring phases, so patterns A1/A2/B/C all occur within 130 batches.
const servedDataset = "NSL-KDD"

func repeatName(name string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = name
	}
	return out
}

// The two request kinds of a cycle.
const (
	opProcess = false
	opInfer   = true
)

// workloads lists the four gated workloads.
var workloads = []workload{
	{
		name:     "learn_drift",
		topo:     topoInProcess,
		batch:    256,
		datasets: []string{"Hyperplane", "Covertype", "NSL-KDD", "Electricity"},
		// Covertype (7 classes) is the heaviest stream and Electricity
		// (dim 6) the lightest, so pairing them balances the two clients.
		owners:  [numClients][]int{{1, 3}, {0, 2}},
		cycle:   [numClients][]bool{{opInfer, opProcess}, {opInfer, opProcess}},
		warmOps: [numClients]int{120, 120},
		// One full pass: every pass repeats the same data on fresh learners.
		scored: 0,
	},
	{
		name:     "serve_ingest",
		topo:     topoServe,
		batch:    128,
		datasets: repeatName(servedDataset, 8),
		owners:   [numClients][]int{{0, 1, 2, 3}, {4, 5, 6, 7}},
		cycle:    [numClients][]bool{{opProcess, opProcess, opProcess, opProcess, opInfer}, {opProcess, opProcess, opProcess, opProcess, opInfer}},
		warmOps:  [numClients]int{500, 500},
		scored:   1000,
	},
	{
		name:     "serve_read_hot",
		topo:     topoServe,
		batch:    64,
		datasets: repeatName(servedDataset, 1),
		// Client 0 only reads; client 1 trains the same stream between
		// reads, so every infer races a snapshot republish.
		owners:  [numClients][]int{{0}, {0}},
		cycle:   [numClients][]bool{{opInfer}, {opProcess, opInfer, opInfer, opInfer}},
		warmOps: [numClients]int{1800, 1200},
		scored:  3000,
	},
	{
		name:     "routed_json_mix",
		topo:     topoRouted,
		json:     true,
		batch:    32,
		datasets: repeatName(servedDataset, 6),
		owners:   [numClients][]int{{0, 1, 2}, {3, 4, 5}},
		cycle:    [numClients][]bool{{opInfer, opProcess}, {opInfer, opProcess}},
		warmOps:  [numClients]int{500, 500},
		scored:   1000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streamInput is one stream's generated schedule, pre-encoded in setup so
// the timed phase does no client-side encoding.
type streamInput struct {
	dim, classes int
	batches      []stream.Batch
	train        [][]byte // labelled request bodies (nil for in-process)
	infer        [][]byte // label-less request bodies (nil for in-process)
}

// streamSeed derives stream i's generator seed from the run seed. Streams
// of one run differ, and runs with different seeds share no stream.
func streamSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// generateInputs draws every stream's full drift schedule from --seed and
// encodes the request bodies the workload's transport needs.
func generateInputs(w *workload, seed int64) ([]streamInput, error) {
	inputs := make([]streamInput, len(w.datasets))
	for i, name := range w.datasets {
		src, err := datasets.Build(name, w.batch, streamSeed(seed, i))
		if err != nil {
			return nil, err
		}
		in := streamInput{dim: src.Dim(), classes: src.Classes(), batches: stream.Collect(src, 0)}
		if w.topo != topoInProcess {
			in.train = make([][]byte, len(in.batches))
			in.infer = make([][]byte, len(in.batches))
			for j, b := range in.batches {
				if in.train[j], err = encodeBody(w.json, b.X, b.Y); err != nil {
					return nil, err
				}
				if in.infer[j], err = encodeBody(w.json, b.X, nil); err != nil {
					return nil, err
				}
			}
		}
		inputs[i] = in
	}
	return inputs, nil
}

func encodeBody(asJSON bool, x [][]float64, y []int) ([]byte, error) {
	if asJSON {
		return json.Marshal(serve.ProcessRequest{X: x, Y: y})
	}
	return wire.AppendFrame(nil, "", wire.Float64, x, y)
}

// op is one scheduled request.
type op struct {
	stream int  // index into the workload's streams
	batch  int  // index into that stream's schedule
	infer  bool // label-less infer (true) or labelled process (false)
}

// buildSchedule lays out the request order of client c. It is a pure function
// of the workload: the client visits its streams round-robin, each stream
// steps through the client's fixed cycle, an infer peeks at the stream's next
// batch and a process call consumes it. A client that never trains advances
// on every infer so it still cycles through the data. A stream's schedule
// replays cyclically, which the learner sees as one more reoccurring shift;
// the returned slice is one full period of the order, to be walked cyclically.
func buildSchedule(w *workload, c int, scheduleLen func(stream int) int) []op {
	own, cyc := w.owners[c], w.cycle[c]
	n := len(own) * len(cyc) * scheduleLen(own[0])
	trains := false
	for _, infer := range cyc {
		trains = trains || !infer
	}
	cursor := make([]int, len(w.datasets))
	pos := make([]int, len(w.datasets))
	ops := make([]op, n)
	for k := range ops {
		s := own[k%len(own)]
		infer := cyc[pos[s]%len(cyc)]
		pos[s]++
		ops[k] = op{stream: s, batch: cursor[s] % scheduleLen(s), infer: infer}
		if !infer || !trains {
			cursor[s]++
		}
	}
	return ops
}
