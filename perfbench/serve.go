package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"darkcrowd/internal/obs"
	"darkcrowd/internal/pipeline"
)

// serveEndToEnd measures the daemon replay: set-up boots the daemon from
// the half-year snapshot (several times, for the median), then one
// keep-alive connection replays the second half-year closed loop, and the
// drained report is compared with a batch geolocate over the same posts.
func serveEndToEnd(e *env, shape serveShape) (map[string]metric, error) {
	s, err := e.prepareServe(shape)
	if err != nil {
		return nil, err
	}
	// Boots that only time set-up; each replay adds its own boot too. The
	// preparation's garbage is collected first, so that this process's
	// collector does not compete with the timed boots.
	settle()
	var boots, results, rss []float64
	for i := 1; i < shape.bootsPerRun; i++ {
		d, err := e.startDaemon(s)
		if err != nil {
			return nil, err
		}
		boots = append(boots, seconds(d.boot))
		if _, err := d.stop(); err != nil {
			return nil, err
		}
	}
	var all replayStats
	start := time.Now()
	var last time.Duration
	for reps := 0; keepGoing(time.Since(start), last, e.seconds, reps, 1); reps++ {
		t0 := time.Now()
		st, err := e.replayHTTP(s)
		last = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if err := e.ownRSS(st.rssMB); err != nil {
			return nil, err
		}
		boots = append(boots, seconds(st.boot))
		results = append(results, seconds(st.result))
		rss = append(rss, st.rssMB)
		all.add(st)
	}
	e.logServe(all, len(results))
	e.logSamples("daemon boots s", boots)
	return map[string]metric{
		"result_s":    {Value: median(results)},
		"setup_s":     {Value: median(boots)},
		"peak_rss_mb": {Value: median(rss)},
	}, nil
}

// serveRun is everything a replay needs, prepared outside any timing.
type serveRun struct {
	in      serveInput
	ref     string
	plan    *replayPlan
	regions []regionCount
	oracle  *pipeline.Report
}

// prepareServe generates (or reuses) the inputs, builds the reference,
// scripts the session and runs the batch oracle.
func (e *env) prepareServe(shape serveShape) (*serveRun, error) {
	in, err := e.serveInput(shape)
	if err != nil {
		return nil, err
	}
	s := &serveRun{in: in, ref: filepath.Join(e.work, "ref.json"), regions: shape.crowd.regions}
	r, err := runProc(e.bin, "reference", "-out", s.ref)
	e.op(err)
	if err != nil {
		return nil, err
	}
	e.logf("reference build %.2fs (input preparation, not timed)", seconds(r.wall))
	base, err := readSnapshot(in.baseDCS)
	if err != nil {
		return nil, err
	}
	tail, err := readSnapshot(in.tailDCS)
	if err != nil {
		return nil, err
	}
	s.plan = newReplayPlan(e.seed, in.baseDCS, base, tail.Posts, shape.bodyLines, shape.placesPer, shape.reportEvery)
	// The oracle: a batch geolocate over the same posts the daemon holds
	// once drained.
	oracle := filepath.Join(e.work, "oracle.json")
	_, err = runProc(e.bin, "geolocate", "-in", in.fullCSV, "-ref", s.ref, "-out", oracle)
	e.op(err)
	if err != nil {
		return nil, err
	}
	if s.oracle, err = readReport(oracle); err != nil {
		return nil, err
	}
	return s, nil
}

// replayStats is what one replay measured. Every latency is one exact
// client-observed request time.
type replayStats struct {
	boot, result          time.Duration
	ingest, place, report []float64 // ms
	accepted              int
	ingestTime            time.Duration
	rssMB                 float64
	counters              map[string]int64 // /metrics counter deltas
	final                 *pipeline.ServeReport
}

func (a *replayStats) add(b replayStats) {
	a.ingest = append(a.ingest, b.ingest...)
	a.place = append(a.place, b.place...)
	a.report = append(a.report, b.report...)
	a.accepted += b.accepted
	a.ingestTime += b.ingestTime
}

// logServe prints the daemon's request-level metrics. They are printed,
// not part of the result line: the result line carries only metrics every
// workload measures.
func (e *env) logServe(s replayStats, replays int) {
	e.logf("replays: %d", replays)
	e.logf("serve ingest_posts_per_s %.6g 1/s (%d posts in %d bodies)", float64(s.accepted)/s.ingestTime.Seconds(), s.accepted, len(s.ingest))
	e.logf("serve ingest_p50_ms %.6g ms, ingest_p99_ms %.6g ms (%d samples)", percentile(s.ingest, 0.5), percentile(s.ingest, 0.99), len(s.ingest))
	e.logf("serve place_p50_ms %.6g ms, place_p99_ms %.6g ms (%d samples)", percentile(s.place, 0.5), percentile(s.place, 0.99), len(s.place))
	e.logf("serve report_p50_ms %.6g ms (%d samples; refit on demand, so also the report's staleness)", percentile(s.report, 0.5), len(s.report))
}

// replayHTTP boots a daemon, replays every body over one keep-alive
// connection and stops the daemon. Requests that fail or answer wrongly
// count as failed operations; only a daemon that cannot boot or be
// reached at all aborts the run.
func (e *env) replayHTTP(s *serveRun) (replayStats, error) {
	var st replayStats
	d, err := e.startDaemon(s)
	if err != nil {
		return st, err
	}
	defer d.kill()
	st.boot = d.boot
	before, err := d.counters()
	if err != nil {
		return st, err
	}
	p := s.plan
	t0 := time.Now()
	for i, body := range p.bodies {
		lines := len(p.posts(i))
		t := time.Now()
		var res pipeline.IngestResult
		err := d.do("POST", "/ingest", body, &res)
		dt := time.Since(t)
		st.ingest = append(st.ingest, millis(dt))
		st.ingestTime += dt
		if err == nil && (res.Accepted != lines || res.Rejected != 0) {
			err = fmt.Errorf("ingest body %d: accepted %d rejected %d of %d lines", i, res.Accepted, res.Rejected, lines)
		}
		e.op(err)
		st.accepted += res.Accepted
		for _, id := range p.places[i] {
			t := time.Now()
			var pr pipeline.PlaceResult
			err := d.do("GET", "/place/"+url.PathEscape(id), nil, &pr)
			st.place = append(st.place, millis(time.Since(t)))
			e.op(checkPlace(err, id, pr))
		}
		if p.reportAfter(i) {
			t := time.Now()
			var rep pipeline.ServeReport
			err := d.do("GET", "/report", nil, &rep)
			st.report = append(st.report, millis(time.Since(t)))
			if err == nil {
				err = checkServeReport(&rep, p.basePosts+st.accepted, s.regions)
			}
			e.op(err)
			if err == nil && i == len(p.bodies)-1 {
				st.final = &rep
			}
		}
	}
	st.result = time.Since(t0)
	after, err := d.counters()
	if err != nil {
		return st, err
	}
	st.counters = make(map[string]int64)
	for k, v := range after {
		st.counters[k] = v - before[k]
	}
	if st.rssMB, err = d.stop(); err != nil {
		return st, err
	}
	if st.final == nil {
		e.op(errors.New("replay produced no report"))
	} else {
		e.op(sameFit("drained daemon report vs batch geolocate", st.final.Geo, s.oracle.Geolocation))
	}
	return st, nil
}

func checkPlace(err error, id string, pr pipeline.PlaceResult) error {
	switch {
	case err != nil:
		return err
	case pr.UserID != id || pr.Posts <= 0:
		return fmt.Errorf("place %s: got user %q with %d posts", id, pr.UserID, pr.Posts)
	case pr.Active && (pr.ZoneIndex == nil || *pr.ZoneIndex < 0 || *pr.ZoneIndex >= 24):
		return fmt.Errorf("place %s: active without a valid zone", id)
	}
	return nil
}

// checkServeReport checks a /report answer of a drained daemon holding
// posts posts.
func checkServeReport(rep *pipeline.ServeReport, posts int, regions []regionCount) error {
	if rep.Posts != posts || rep.Gen != uint64(posts) {
		return fmt.Errorf("report at %d posts says posts=%d gen=%d", posts, rep.Posts, rep.Gen)
	}
	if rep.Geo == nil {
		return errors.New("report has no geolocation")
	}
	return checkComponents(rep.Geo, regions)
}

// daemonProc is a running `darkcrowd serve`.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	boot   time.Duration
	client *http.Client
	drain  chan struct{} // closed when standard output reaches EOF
	stderr *bytes.Buffer
	done   bool // the process has been waited for
}

// bootTimeout bounds how long a daemon may take to start listening.
const bootTimeout = 60 * time.Second

// startDaemon boots the daemon on a fresh copy of the warm-start snapshot
// (the daemon checkpoints into its snapshot file, so the fixture itself
// must never be handed over) and times process start to the moment it
// announces its listening address.
func (e *env) startDaemon(s *serveRun) (*daemonProc, error) {
	snap, err := s.plan.bootCopy(e.work)
	if err != nil {
		return nil, err
	}
	cmd := command(e.bin, "serve", "-addr", "127.0.0.1:0", "-ref", s.ref, "-snapshot", snap, "-refit-debounce", "-1s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, drain: make(chan struct{}), stderr: new(bytes.Buffer)}
	cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drain)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		d.boot = time.Since(t0)
		d.base = "http://" + a
	case <-d.drain:
		d.kill()
		return nil, fmt.Errorf("daemon exited before listening: %s", lastLine(d.stderr.String()))
	case <-time.After(bootTimeout):
		d.kill()
		return nil, fmt.Errorf("daemon not listening after %s", bootTimeout)
	}
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	return d, nil
}

// do sends one request and decodes a 200 answer's JSON into out.
func (d *daemonProc) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// counters scrapes the daemon's /metrics counters.
func (d *daemonProc) counters() (map[string]int64, error) {
	var snap obs.Snapshot
	if err := d.do("GET", "/metrics", nil, &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// stopTimeout bounds a graceful shutdown, which includes the daemon's
// final snapshot write.
const stopTimeout = 60 * time.Second

// stop shuts the daemon down gracefully, waits for it to exit and returns
// its peak RSS.
func (d *daemonProc) stop() (float64, error) {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case <-d.drain:
	case <-time.After(stopTimeout):
		d.kill()
		return 0, fmt.Errorf("daemon did not stop within %s", stopTimeout)
	}
	d.done = true
	err := d.cmd.Wait()
	// serve installs its SIGTERM handler just after announcing its
	// address, so a daemon stopped right after booting can die of the
	// signal itself instead of draining. Nothing is lost: the benchmark
	// never reads the snapshot a drain would write.
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
	}
	if err != nil {
		return 0, fmt.Errorf("daemon exit: %w: %s", err, lastLine(d.stderr.String()))
	}
	return maxRSSMB(d.cmd.ProcessState.SysUsage()), nil
}

// kill ends a daemon that is still running and waits for it; a no-op once
// the daemon has been stopped.
func (d *daemonProc) kill() {
	if d.done {
		return
	}
	d.done = true
	_ = d.cmd.Process.Kill()
	<-d.drain
	_ = d.cmd.Wait()
}
