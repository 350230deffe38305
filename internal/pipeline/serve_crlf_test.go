package pipeline

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestDaemonIngestLineEndings: the ingest wire format is newline-framed,
// but clients on Windows (curl, PowerShell) and rewriting proxies send
// CRLF frames and stray indentation. Every whitespace dressing of the
// same logical stream must accept the same posts and compact to a
// byte-identical .dcs snapshot. This pins the fix for the old trimSpace
// helper, which only trimmed *leading* whitespace and let trailing \r\t
// reach the line parser.
func TestDaemonIngestLineEndings(t *testing.T) {
	dir := t.TempDir()
	csvPath := writeCrowd(t, dir)
	ds := loadCSV(t, csvPath)
	lf := ndjson(ds.Posts)

	variants := map[string]func([]byte) []byte{
		"lf": func(b []byte) []byte { return b },
		"crlf": func(b []byte) []byte {
			return bytes.ReplaceAll(b, []byte("\n"), []byte("\r\n"))
		},
		"trailing-whitespace": func(b []byte) []byte {
			return bytes.ReplaceAll(b, []byte("\n"), []byte(" \t\r\n"))
		},
		"leading-whitespace": func(b []byte) []byte {
			return append([]byte("  "), bytes.ReplaceAll(b, []byte("\n"), []byte("\n\t "))...)
		},
		"blank-crlf-lines": func(b []byte) []byte {
			return bytes.ReplaceAll(b, []byte("\n"), []byte("\n\r\n"))
		},
	}

	snapshots := make(map[string][]byte, len(variants))
	for name, dress := range variants {
		snap := filepath.Join(dir, name+".dcs")
		d, err := NewDaemon(ServeConfig{
			Reference:     testReference(t),
			SnapshotPath:  snap,
			RefitDebounce: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Ingest(bytes.NewReader(dress(append([]byte(nil), lf...))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Accepted != len(ds.Posts) || res.Rejected != 0 {
			t.Fatalf("%s: accepted %d rejected %d, want %d/0", name, res.Accepted, res.Rejected, len(ds.Posts))
		}
		if res.Users > res.Posts {
			t.Fatalf("%s: result reports %d users for %d posts", name, res.Users, res.Posts)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		snapshots[name] = mustReadBytes(t, snap)
	}
	for name, snap := range snapshots {
		if !bytes.Equal(snap, snapshots["lf"]) {
			t.Errorf("%s snapshot differs from lf snapshot (%d vs %d bytes)", name, len(snap), len(snapshots["lf"]))
		}
	}
}
