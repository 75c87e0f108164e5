package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"freewayml/internal/wire"
)

func TestPercentileIsAnExactOrderStatistic(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 10}, {0.95, 19}, {0.99, 20}, {1, 20}, {0.05, 1}, {0.051, 2}, {0.0001, 1},
	} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..20, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

// The acceptance rule for the benchmark uses Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 2}, 1.5, 4.5},
		{[]float64{3, 3, 3, 3}, 3, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestParsePredictions(t *testing.T) {
	got, ok := parsePredictions([]byte(`{"stream":"s0","predictions":[0,12,3],"pattern":"A1"}`), nil)
	if !ok || len(got) != 3 || got[0] != 0 || got[1] != 12 || got[2] != 3 {
		t.Errorf("parsePredictions = %v, %v", got, ok)
	}
	for _, bad := range []string{`{"predictions":null}`, `{"predictions":[1,`, `{"predictions":[1,,2]}`, `{}`, `{"predictions":[]}`} {
		if _, ok := parsePredictions([]byte(bad), nil); ok {
			t.Errorf("parsePredictions(%s) accepted", bad)
		}
	}
}

// scheduleHash fingerprints everything the program under test will receive:
// every stream's batches and, per client, the request order. Same workload,
// seed and counts ⇒ same hash.
func scheduleHash(inputs []streamInput, schedules [numClients][]op) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, in := range inputs {
		put(uint64(len(in.batches)))
		for _, b := range in.batches {
			// The binary f64 frame is a lossless image of the batch.
			frame, err := wire.AppendFrame(nil, "", wire.Float64, b.X, b.Y)
			if err != nil {
				panic(err) // generated batches are rectangular by construction
			}
			h.Write(frame)
		}
	}
	for _, ops := range schedules {
		put(uint64(len(ops)))
		for _, o := range ops {
			v := uint64(o.stream)<<33 | uint64(o.batch)<<1
			if o.infer {
				v |= 1
			}
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scheduleOf generates a workload's inputs and request order for a seed.
func scheduleOf(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	inputs, err := generateInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var schedules [numClients][]op
	for c := range schedules {
		schedules[c] = buildSchedule(w, c, func(s int) int { return len(inputs[s].batches) })
	}
	return scheduleHash(inputs, schedules)
}

func TestSameSeedSameSchedule(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, other := scheduleOf(t, w, 7), scheduleOf(t, w, 7), scheduleOf(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s and then %s", w.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
	}
}

// A schedule must be one exact period: walking it twice gives every stream
// the same batch order as one uninterrupted longer walk would.
func TestScheduleIsPeriodic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for c := 0; c < numClients; c++ {
			ops := buildSchedule(w, c, func(int) int { return 13 })
			trains := false
			for _, o := range ops {
				trains = trains || !o.infer
			}
			consumed := map[int]int{}
			for _, o := range ops {
				if want := consumed[o.stream] % 13; o.batch != want {
					t.Fatalf("%s client %d: stream %d sends batch %d, want %d", w.name, c, o.stream, o.batch, want)
				}
				if !o.infer || !trains {
					consumed[o.stream]++
				}
			}
			for s, n := range consumed {
				if n%13 != 0 {
					t.Errorf("%s client %d: one period consumes %d batches of stream %d, not a whole number of schedules", w.name, c, n, s)
				}
			}
		}
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("%s name %q outside the allowed charset or length", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside 1..60", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) > 16 || len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, harness reports %d, limit 16", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		checkName("metric", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s], harness reports %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %q: unit %q outside the allowed charset or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(bf.PerLayer) > 128 || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, harness reports %d, limit 128", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName("metric", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s], harness reports %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %q: unit %q outside the allowed charset or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
}

func TestLayerTableReconciles(t *testing.T) {
	rp := &replays{
		handler:     classTimes{train: []float64{1000, 1200}, infer: []float64{300}},
		session:     classTimes{train: []float64{900, 1100}, infer: []float64{250}},
		core:        classTimes{train: []float64{800, 1000}, infer: []float64{200}},
		stageMeanUs: map[string]float64{"guard": 10, "shift_detect": 20, "predict": 200, "short_update": 400, "window_push": 5, "long_update": 215},
	}
	live := map[string]liveClass{
		"train": {n: 2, rttUs: 2000, routerUs: 1700, workUs: 1250},
		"infer": {n: 1, rttUs: 700, routerUs: 500, workUs: 260},
	}
	for _, topo := range []int{topoInProcess, topoServe, topoRouted} {
		for _, class := range []string{"train", "infer"} {
			rows := layerTable(&workload{topo: topo}, live, rp, class)
			var sum float64
			for _, r := range rows[1:] {
				sum += r.us
			}
			if math.Abs(sum-rows[0].us) > 1e-9 {
				t.Errorf("topology %d, %s: self times sum to %g, client.rtt is %g", topo, class, sum, rows[0].us)
			}
			if err := checkLayerTable(rows); err != nil {
				t.Errorf("topology %d, %s: %v", topo, class, err)
			}
		}
	}
	// Served train request: transport = 2000 - 1250 - (1100 - 1000), the
	// worker's residual = 1250 - 1000, and the rest comes from the replays.
	rows := layerTable(&workload{topo: topoServe}, live, rp, "train")
	want := map[string]float64{
		"unattributed.transport": 650, "serve.self": 100, "session.self": 100,
		"core.publish+bookkeeping": 50, "unattributed.worker": 250,
	}
	for _, r := range rows {
		if w, ok := want[r.layer]; ok && math.Abs(r.us-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", r.layer, r.us, w)
		}
	}
	if got := attributedFrac(rows); math.Abs(got-0.55) > 1e-9 {
		t.Errorf("attributed share = %g, want 0.55", got)
	}
	rows[2].us += 0.2 * rows[0].us
	if err := checkLayerTable(rows); err == nil {
		t.Error("a table whose rows overshoot the round trip by 20% passed the 5% check")
	}
}

// TestSmoke builds the two servers and runs every workload for half a second
// with outputs checked, plus one traced run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots server processes")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+"/", "../cmd/freeway-serve", "../cmd/freeway-router")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build servers: %v\n%s", err, out)
	}
	opts := options{seed: 3, seconds: 0.3, smoke: true, binDir: dir, outDir: dir}
	if err := os.MkdirAll(dir+"/tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		res, err := runWorkload(w, opts, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v", w.name, m.name, v)
			}
		}
	}
	opts.trace = true
	res, err := runWorkload(&workloads[1], opts, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced %s: correct=%v, %d operations failed", workloads[1].name, res.Correct, res.Failed)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("traced run reports no %s", m.name)
		}
	}
}
