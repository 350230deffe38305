package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"darkcrowd/internal/trace"
)

// Every input is made by the program under test: `darkcrowd generate`
// writes the crowds and `darkcrowd snapshot` the daemon's .dcs files. A
// workload's inputs are made once and cached; making them is not part of
// any metric.
//
// The crowds are a fixed panel, generated from panelSeed on, whatever
// --seed says. How long the fit layers take depends on the crowd as much
// as on the program: on five 3,000-user crowds of one shape, one geolocate
// took 1.0 s to 2.5 s, the bootstrap alone 0.46 s to 1.8 s. Crowds drawn
// per --seed would make result_s measure the draw, so every run does the
// same work on the same crowds, and --seed scripts the run instead: the
// order the crowds are run in and the daemon replay's /place lookups.
const panelSeed = 1

// regionCount is one "code:count" pair of a -regions flag.
type regionCount struct {
	code  string
	users int
}

// crowdSpec is what `darkcrowd generate` takes besides the seed.
type crowdSpec struct {
	regions      []regionCount
	postsPerUser float64
}

// regionsFlag renders the spec as the CLI's -regions value.
func (c crowdSpec) regionsFlag() string {
	parts := make([]string, len(c.regions))
	for i, r := range c.regions {
		parts[i] = fmt.Sprintf("%s:%d", r.code, r.users)
	}
	return strings.Join(parts, ",")
}

// generateArgs is the command line that writes the crowd of spec and seed
// to out.
func generateArgs(spec crowdSpec, seed int64, out string) []string {
	return []string{"generate", "-regions", spec.regionsFlag(),
		"-posts", strconv.FormatFloat(spec.postsPerUser, 'g', -1, 64),
		"-seed", strconv.FormatInt(seed, 10), "-out", out}
}

// crowdYear is the year `darkcrowd generate` fills with posts.
const crowdYear = 2017

// monthStart is the first instant of the given month of crowdYear (month
// 13 is the end of the year).
func monthStart(month int) time.Time {
	return time.Date(crowdYear, time.Month(month), 1, 0, 0, 0, 0, time.UTC)
}

// cached returns the directory holding the workload's inputs. Its
// "complete" marker records the key the inputs were made under; when the
// marker is missing or records another key, the directory is emptied and
// generate fills it afresh. The key is the binary's digest followed by the
// commands that make the inputs, so a changed program or workload shape
// never reuses stale inputs.
func (e *env) cached(key string, generate func(dir string) error) (string, error) {
	digest, err := fileDigest(e.bin)
	if err != nil {
		return "", err
	}
	key = fmt.Sprintf("darkcrowd sha256 %s\n%s\n", digest, key)
	dir := e.fixture
	done := filepath.Join(dir, "complete")
	if got, err := os.ReadFile(done); err == nil && string(got) == key {
		return dir, nil
	}
	t0 := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := generate(dir); err != nil {
		return "", fmt.Errorf("generate inputs: %w", err)
	}
	e.logf("generated inputs in %s (%.1fs)", dir, time.Since(t0).Seconds())
	return dir, os.WriteFile(done, []byte(key), 0o644)
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// batchInputs returns the crowd CSVs of a batch workload, one per crowd;
// crowd i is generated from seed panelSeed+i.
func (e *env) batchInputs(shape batchShape) ([]string, error) {
	spec := shape.crowd
	if e.tiny {
		spec = tinyCrowd(spec)
	}
	cmds := make([][]string, shape.crowds)
	for i := range cmds {
		cmds[i] = generateArgs(spec, panelSeed+int64(i), fmt.Sprintf("crowd-%d.csv", i))
	}
	dir, err := e.cached(commandsKey(cmds), func(dir string) error {
		// Each generate is one sequential random stream: run one per core.
		errs := make([]error, len(cmds))
		sem := make(chan struct{}, runtime.NumCPU())
		var wg sync.WaitGroup
		for i, args := range cmds {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				errs[i] = e.runIn(dir, args)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	var paths []string
	for _, args := range cmds {
		paths = append(paths, filepath.Join(dir, args[len(args)-1]))
	}
	return paths, err
}

// runIn runs darkcrowd with args whose last argument is an output file
// name, writing that file into dir.
func (e *env) runIn(dir string, args []string) error {
	args = append(args[:len(args)-1:len(args)-1], filepath.Join(dir, args[len(args)-1]))
	_, err := runProc(e.bin, args...)
	return err
}

func commandsKey(cmds [][]string) string {
	lines := make([]string, len(cmds))
	for i, c := range cmds {
		lines[i] = strings.Join(c, " ")
	}
	return strings.Join(lines, "\n")
}

// serveInput is the daemon replay's inputs: the whole crowd as CSV (for
// the batch oracle), and the posts before and from the split as two .dcs
// snapshots: the warm-start state and the replayed stream.
type serveInput struct {
	fullCSV, baseDCS, tailDCS string
}

func (e *env) serveInput(shape serveShape) (serveInput, error) {
	spec := shape.crowd
	if e.tiny {
		spec = tinyCrowd(spec)
	}
	split := monthStart(shape.splitMonth)
	gen := generateArgs(spec, panelSeed, "full.csv")
	snapBase := []string{"snapshot", "-in", "base.csv", "-out", "base.dcs"}
	snapTail := []string{"snapshot", "-in", "tail.csv", "-out", "tail.dcs"}
	key := commandsKey([][]string{gen, {"split at", split.Format(time.RFC3339)}, snapBase, snapTail})
	dir, err := e.cached(key, func(dir string) error {
		if err := e.runIn(dir, gen); err != nil {
			return err
		}
		in := func(name string) string { return filepath.Join(dir, name) }
		if err := splitCSV(in("full.csv"), split, in("base.csv"), in("tail.csv")); err != nil {
			return err
		}
		for _, args := range [][]string{snapBase, snapTail} {
			if _, err := runProc(e.bin, args[0], "-in", in(args[2]), "-out", in(args[4])); err != nil {
				return err
			}
			if err := os.Remove(in(args[2])); err != nil {
				return err
			}
		}
		return nil
	})
	return serveInput{
		fullCSV: filepath.Join(dir, "full.csv"),
		baseDCS: filepath.Join(dir, "base.dcs"),
		tailDCS: filepath.Join(dir, "tail.dcs"),
	}, err
}

// splitCSV copies the rows of a "user,time" CSV trace dated before at to
// the file before and the other rows to after, the header to both. It
// streams, so the benchmark process stays small (see ownRSS).
func splitCSV(in string, at time.Time, before, after string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	var outs [2]*os.File
	var ws [2]*bufio.Writer
	for i, path := range []string{before, after} {
		if outs[i], err = os.Create(path); err != nil {
			return err
		}
		defer outs[i].Close()
		ws[i] = bufio.NewWriterSize(outs[i], 1<<20)
	}
	sc := bufio.NewScanner(f)
	for row := 0; sc.Scan(); row++ {
		line := sc.Bytes()
		targets := ws[:]
		if row > 0 {
			comma := bytes.LastIndexByte(line, ',')
			t, err := time.Parse(time.RFC3339, string(line[comma+1:]))
			if comma < 0 || err != nil {
				return fmt.Errorf("%s row %d: not a user,time row: %q", in, row+1, line)
			}
			side := 0
			if !t.Before(at) {
				side = 1
			}
			targets = ws[side : side+1]
		}
		for _, w := range targets {
			w.Write(line)
			w.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for i, w := range ws {
		if err := w.Flush(); err != nil {
			return err
		}
		if err := outs[i].Close(); err != nil {
			return err
		}
	}
	return nil
}

// readSnapshot loads a .dcs file.
func readSnapshot(path string) (*trace.Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.ReadSnapshotBytes(data)
}
