package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"darkcrowd/internal/trace"
)

// replayPlan is a scripted daemon session, fixed before any timing: the
// warm-start snapshot, the stream of request bodies, and which users the
// /place lookups ask for. The HTTP replay and the traced in-process
// replay walk the same plan, so both do exactly the same work.
type replayPlan struct {
	baseDCS   string // warm-start snapshot; copied before every boot
	basePosts int
	tail      []trace.Post // the replayed posts, in time order
	bodies    [][]byte     // tail rendered as NDJSON, bodyLines per body
	bodyLines int
	// places[i] lists the users looked up after body i: seeded picks among
	// the users the daemon has seen by then.
	places [][]string
	// reportEvery is the number of bodies between /report calls; the last
	// body is always followed by one.
	reportEvery int
}

// newReplayPlan renders the bodies and picks the lookups. The picks are
// seeded, so a seed fixes the whole session.
func newReplayPlan(seed int64, baseDCS string, base *trace.Dataset, tail []trace.Post, bodyLines, placesPer, reportEvery int) *replayPlan {
	p := &replayPlan{baseDCS: baseDCS, basePosts: base.NumPosts(), tail: tail, bodyLines: bodyLines, reportEvery: reportEvery}
	users := base.Users()
	known := make(map[string]bool, len(users))
	for _, id := range users {
		known[id] = true
	}
	rng := rand.New(rand.NewSource(seed))
	for start := 0; start < len(tail); start += bodyLines {
		end := min(start+bodyLines, len(tail))
		var body []byte
		for _, post := range tail[start:end] {
			body = appendIngestLine(body, post)
			if !known[post.UserID] {
				known[post.UserID] = true
				users = append(users, post.UserID)
			}
		}
		p.bodies = append(p.bodies, body)
		picks := make([]string, placesPer)
		for k := range picks {
			picks[k] = users[rng.Intn(len(users))]
		}
		p.places = append(p.places, picks)
	}
	return p
}

// posts returns the posts of body i.
func (p *replayPlan) posts(i int) []trace.Post {
	return p.tail[i*p.bodyLines : min((i+1)*p.bodyLines, len(p.tail))]
}

// reportAfter reports whether body i is followed by a /report.
func (p *replayPlan) reportAfter(i int) bool {
	return (i+1)%p.reportEvery == 0 || i == len(p.bodies)-1
}

// bootCopy copies the warm-start snapshot to a file the daemon may
// overwrite with its own checkpoints, and returns its path.
func (p *replayPlan) bootCopy(dir string) (string, error) {
	data, err := os.ReadFile(p.baseDCS)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "daemon.dcs")
	return path, os.WriteFile(path, data, 0o644)
}

// appendIngestLine renders a post as one NDJSON line of the daemon's
// /ingest format.
func appendIngestLine(buf []byte, p trace.Post) []byte {
	buf = append(buf, `{"user_id":"`...)
	buf = append(buf, p.UserID...)
	buf = append(buf, `","time":"`...)
	buf = p.Time.UTC().AppendFormat(buf, time.RFC3339)
	return append(buf, "\"}\n"...)
}
