package trace

import (
	"bytes"
	"testing"
	"time"
)

// benchDataset builds a mid-sized CSV + snapshot pair once per benchmark
// binary: enough rows that per-byte costs dominate setup noise.
func benchIngestInput(b *testing.B) (csvBytes, snapBytes []byte, posts int) {
	b.Helper()
	var buf bytes.Buffer
	buf.WriteString("user_id,time_rfc3339\n")
	for i := 0; i < 100_000; i++ {
		// 997 users, deterministic spread over ~4 months of 2017.
		u := i * 7919 % 997
		sec := int64(1488368000) + int64(i%9973)*997
		buf.WriteString("user")
		buf.WriteByte(byte('a' + u%26))
		buf.WriteByte(byte('a' + (u/26)%26))
		buf.WriteByte(byte('a' + u/676))
		buf.WriteByte(',')
		buf.Write(appendRFC3339(nil, time.Unix(sec, 0).UTC()))
		buf.WriteByte('\n')
	}
	csvBytes = buf.Bytes()
	ds, _, err := ReadCSVOpts("bench", bytes.NewReader(csvBytes), ReadCSVOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ds.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	return csvBytes, snap.Bytes(), ds.NumPosts()
}

func BenchmarkSnapshotDecode(b *testing.B) {
	_, snapBytes, posts := benchIngestInput(b)
	b.SetBytes(int64(len(snapBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := decodeSnapshot(snapBytes)
		if err != nil {
			b.Fatal(err)
		}
		if ds.NumPosts() != posts {
			b.Fatal("short decode")
		}
	}
}

func BenchmarkParallelRead(b *testing.B) {
	csvBytes, _, posts := benchIngestInput(b)
	b.SetBytes(int64(len(csvBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := IngestCSV("bench", csvBytes, IngestOptions{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if res.Dataset.NumPosts() != posts {
			b.Fatal("short read")
		}
	}
}
