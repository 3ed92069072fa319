package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hibernator/internal/atomicio"
	"hibernator/internal/chaos"
	"hibernator/internal/journal"
	"hibernator/internal/served"
)

// jobsBench drives an in-process durable job server behind httptest with
// nproc closed-loop clients. Each client submits a scenario, reads the
// job's metrics stream to EOF, then reads the job's status once and
// checks the result and stream bytes against served.DirectRun.
type jobsBench struct {
	dir, stateDir string
	warmDir       string // the warm-up state every set-up re-opens a copy of
	reopens       int
	clients       int
	min           int

	scenarios []jobInput
	srv       *served.Server
	ts        *httptest.Server
	client    *http.Client
	submitted int
}

// jobInput is one distinct scenario with its direct-run reference.
type jobInput struct {
	body    []byte // repro text POSTed to /jobs
	result  []byte // canonical result, no trailing newline
	metrics []byte // the full metrics stream
	fp      chaos.Fingerprint
}

// jobCatalogSeed generates the jobs-durable scenario shapes.
const jobCatalogSeed = 1

func newJobsDurable(o options) (_ *jobsBench, err error) {
	distinct, simT, minJobs := 128, 45.0, 200
	if o.size == "tiny" {
		distinct, simT, minJobs = 3, 20, 6
	}
	dir, err := os.MkdirTemp(o.tmp, "perfbench-jobs-")
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	b := &jobsBench{
		dir: dir, stateDir: filepath.Join(dir, "state"), warmDir: filepath.Join(dir, "warm"),
		clients: clients, min: minJobs,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
		},
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	for i := 0; i < distinct; i++ {
		// The job mix is fixed: scenario shapes (geometry, scheme, load,
		// faults) come from one catalog, and the seed draws each job's
		// simulation randomness. Shapes vary so much in cost that a mix
		// redrawn per seed would swamp the service's own numbers.
		g := chaos.Generate(jobCatalogSeed, i)
		g.Seed = chaos.Mix(o.seed, int64(i))
		g.Duration = simT
		if g.SnapshotT >= g.Duration {
			g.SnapshotT = 0
		}
		var in jobInput
		var buf bytes.Buffer
		if err := chaos.WriteRepro(&buf, &g); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		in.body = buf.Bytes()
		res, metrics, _, err := served.DirectRun(&g, false)
		if err != nil {
			return nil, fmt.Errorf("direct run %d: %w", i, err)
		}
		in.result, in.metrics = bytes.TrimSuffix(res, []byte("\n")), metrics
		if err := json.Unmarshal(in.result, &in.fp); err != nil {
			return nil, fmt.Errorf("direct result %d: %w", i, err)
		}
		b.scenarios = append(b.scenarios, in)
	}
	// Warm-up, untimed: one job per scenario on a fresh state dir. Its
	// log is kept as the replay input every timed set-up re-opens.
	if err := b.open(); err != nil {
		return nil, err
	}
	out := &passOut{digests: map[string]string{}, ops: map[string]float64{}}
	b.runBatch(out, nil)
	if out.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed", out.failed, out.attempted)
	}
	b.shut()
	if err := copyDir(b.stateDir, b.warmDir); err != nil {
		return nil, err
	}
	if err := b.open(); err != nil {
		return nil, err
	}
	return b, nil
}

// open starts the server the passes use on the state dir.
func (b *jobsBench) open() error {
	srv, err := served.Open(&served.Options{StateDir: b.stateDir})
	if err != nil {
		return err
	}
	b.srv = srv
	b.ts = httptest.NewServer(srv.Handler())
	return nil
}

func (b *jobsBench) shut() {
	if b.ts != nil {
		b.ts.Close()
		b.ts = nil
	}
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

// setup times re-opening a server on a fresh copy of the warm-up state
// dir until it reports ready: the write-ahead log replay. The copy is
// not timed; the server is closed again afterwards.
func (b *jobsBench) setup() (float64, error) {
	b.reopens++
	dst := filepath.Join(b.dir, "reopen-"+strconv.Itoa(b.reopens))
	defer os.RemoveAll(dst) // best effort: the benchmark's own temporary directory
	if err := copyDir(b.warmDir, dst); err != nil {
		return 0, err
	}
	c0 := processCPU()
	srv, err := served.Open(&served.Options{StateDir: dst})
	if err != nil {
		return 0, err
	}
	for !srv.Ready() {
		time.Sleep(50 * time.Microsecond)
	}
	d := processCPU() - c0
	srv.Close()
	return d, nil
}

// copyDir copies the regular files of the tree src to dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

func (b *jobsBench) setupReps() int { return 5 }
func (b *jobsBench) minOps() int    { return b.min }
func (b *jobsBench) width() int     { return b.clients }

func (b *jobsBench) close() {
	b.shut()
	os.RemoveAll(b.dir) // best effort: the benchmark's own temporary directory
}

func (b *jobsBench) pass(tr *tracer) (*passOut, error) {
	out := &passOut{digests: map[string]string{}, ops: map[string]float64{}}
	for i, in := range b.scenarios {
		out.digests[scenarioKey(i)] = sha(in.result)
	}
	m := startMeter()
	b.runBatch(out, tr)
	out.m = m.stop()
	return out, nil
}

// runBatch drives every scenario through the server once, with the
// closed-loop clients.
func (b *jobsBench) runBatch(out *passOut, tr *tracer) {
	work := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				var j jobTiming
				tr.do(func() { j = b.driveJob(&b.scenarios[i]) }, "job", strconv.Itoa(i))
				mu.Lock()
				out.add(j, i, &b.scenarios[i])
				mu.Unlock()
			}
		}()
	}
	for i := range b.scenarios {
		work <- i
	}
	close(work)
	wg.Wait()
	b.submitted += len(b.scenarios)
}

// jobTiming is what one client measured for one job.
type jobTiming struct {
	submit, queue, run, total float64 // seconds
	refused                   int
	events                    uint64
	err                       error
}

func scenarioKey(i int) string { return "scenario-" + strconv.Itoa(i) }

func (p *passOut) add(j jobTiming, i int, in *jobInput) {
	p.attempted++
	p.submissions += 1 + j.refused
	p.refused += j.refused
	if j.err != nil {
		p.failed++
		fmt.Fprintln(os.Stderr, "perfbench: job:", j.err)
		return
	}
	p.ops[scenarioKey(i)] = j.total
	p.submit = append(p.submit, j.submit)
	p.queue = append(p.queue, j.queue)
	p.run = append(p.run, j.run)
	p.reqs += in.fp.Requests
	p.events += j.events
	p.c.add(counts{
		cacheHits: in.fp.CacheHits, destages: in.fp.Destages,
		spins: in.fp.SpinUps + in.fp.SpinDowns, shifts: in.fp.LevelShifts, migratedBytes: in.fp.MigratedBytes,
		retries: in.fp.Faults.Retries, fallbacks: in.fp.Faults.Fallbacks, timeouts: in.fp.Faults.Timeouts,
	})
}

// driveJob submits one scenario (honouring 429s), times the POST round
// trip, the wait for the stream's first byte and the stream to EOF, and
// verifies the job's stream and result bytes.
func (b *jobsBench) driveJob(in *jobInput) jobTiming {
	var j jobTiming
	t0 := time.Now()
	var id string
	for id == "" {
		ts := time.Now()
		resp, err := b.client.Post(b.ts.URL+"/jobs", "text/plain", bytes.NewReader(in.body))
		if err != nil {
			j.err = fmt.Errorf("submit: %w", err)
			return j
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		j.submit = time.Since(ts).Seconds()
		switch {
		case err != nil:
			j.err = fmt.Errorf("submit: %w", err)
			return j
		case resp.StatusCode == http.StatusTooManyRequests:
			j.refused++
			time.Sleep(50 * time.Millisecond)
		case resp.StatusCode != http.StatusAccepted:
			j.err = fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
			return j
		default:
			var v struct{ ID string }
			if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
				j.err = fmt.Errorf("submit response %q: %v", body, err)
				return j
			}
			id = v.ID
		}
	}
	resp, err := b.client.Get(b.ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		j.err = fmt.Errorf("stream %s: %w", id, err)
		return j
	}
	var streamed bytes.Buffer
	first := make([]byte, 1)
	n, err := io.ReadFull(resp.Body, first)
	tFirst := time.Now()
	streamed.Write(first[:n])
	if err == nil {
		_, err = io.Copy(&streamed, resp.Body)
	} else if err == io.EOF {
		err = nil
	}
	resp.Body.Close()
	tEOF := time.Now()
	if err != nil {
		j.err = fmt.Errorf("stream %s: %w", id, err)
		return j
	}
	j.total = tEOF.Sub(t0).Seconds()
	j.queue = tFirst.Sub(t0).Seconds()
	j.run = tEOF.Sub(tFirst).Seconds()

	sresp, err := b.client.Get(b.ts.URL + "/jobs/" + id)
	if err != nil {
		j.err = fmt.Errorf("status %s: %w", id, err)
		return j
	}
	defer sresp.Body.Close()
	var st served.JobStatus
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		j.err = fmt.Errorf("status %s: %w", id, err)
		return j
	}
	j.events = st.Events
	switch {
	case st.State != served.StateComplete:
		j.err = fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	case !bytes.Equal(st.Result, in.result):
		j.err = fmt.Errorf("job %s result %s differs from the direct run's %s", id, st.Result, in.result)
	case !bytes.Equal(streamed.Bytes(), in.metrics):
		j.err = fmt.Errorf("job %s stream (%d bytes) differs from the direct run's (%d bytes)", id, streamed.Len(), len(in.metrics))
	}
	return j
}

// finish measures the state the service left per job and, when traced,
// runs the standalone storage kernels on the benchmark's temporary dir.
func (b *jobsBench) finish(traced bool) (map[string]metric, error) {
	b.shut() // flush and close the log before measuring it
	log, err := os.ReadFile(filepath.Join(b.stateDir, "jobs.jsonl"))
	if err != nil {
		return nil, err
	}
	var size int64
	err = filepath.Walk(b.stateDir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			size += fi.Size()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	jobs := float64(b.submitted)
	out := map[string]metric{
		"served.wal_lines_per_job":   {float64(bytes.Count(log, []byte("\n"))) / jobs, "count"},
		"served.state_bytes_per_job": {float64(size) / jobs, "B"},
	}
	if !traced {
		return out, nil
	}
	app, err := journalKernel(filepath.Join(b.dir, "kernel.jsonl"), 200)
	if err != nil {
		return nil, err
	}
	wr, err := atomicioKernel(filepath.Join(b.dir, "kernel.bin"), 100)
	if err != nil {
		return nil, err
	}
	out["journal.append_fsync_us"] = metric{app * 1e6, "us"}
	out["atomicio.write_us"] = metric{wr * 1e6, "us"}
	return out, nil
}

// journalKernel returns the median seconds of n journal.Append calls.
func journalKernel(path string, n int) (float64, error) {
	j, err := journal.Open(path, "perfbench-kernel")
	if err != nil {
		return 0, err
	}
	defer j.Close()
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		e := journal.Entry{Run: "job-" + strconv.Itoa(i), Status: journal.StatusDone, Attempt: 1, SHA256: sha([]byte{byte(i)})}
		t0 := time.Now()
		if err := j.Append(e); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// atomicioKernel returns the median seconds of n atomic 4 KiB writes.
func atomicioKernel(path string, n int) (float64, error) {
	data := bytes.Repeat([]byte("perfbench"), 4096/9)
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := atomicio.WriteFileBytes(path, data); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}
