package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/scenario"
	"paco/internal/server"
	"paco/internal/session"
	"paco/internal/trace"
)

// Shape of the sessions workload.
const (
	sessionsPerRound = 16
	sessionWorkers   = 2
	scoresEvery      = 4   // a streamer reads scores after every 4th chunk
	maxRetries       = 500 // 429 answers one session tolerates, 2ms apart
	estimatorList    = "paco,count,perbranch"
)

// Chunk sizes are the defaults of the existing clients: paco-obs
// sessions posts 32 KiB chunks, paco-trace stream 64 KiB ones. Binary
// chunks split the byte stream anywhere (the decoder resumes
// mid-record); NDJSON chunks end on the last line boundary that fits.
const (
	smallChunk = 32 << 10
	largeChunk = 64 << 10
)

// stream is one recorded branch-event stream and how a streamer sends
// it.
type stream struct {
	raw    []byte // binary trace, header included
	events int
	format session.Format
	chunks [][]byte
	want   []byte // the offline replay's final document, filled by the first check
}

func (s *stream) contentType() string {
	if s.format == session.FormatBinary {
		return "application/octet-stream"
	}
	return "application/x-ndjson"
}

// sessionsBench is the sessions workload: a session-routing coordinator
// in front of two in-process session workers, all on loopback HTTP, and
// GOMAXPROCS streamers that each open a session, stream a recorded
// event stream while reading scores, and close it.
type sessionsBench struct {
	o        opts
	spec     session.Spec
	specJSON []byte
	streams  []*stream
	coord    *server.Server
	coordTS  *httptest.Server
	workers  []*sessionWorker
	client   *http.Client

	checked     int // session finals compared with the offline replay
	retries     int // 429 answers in the latest round
	chunks      int // chunks posted in the latest round
	journalPeak int // largest router journal bytes seen in traced rounds
}

type sessionWorker struct {
	srv    *server.Server
	ts     *httptest.Server
	cancel context.CancelFunc
	done   chan struct{}
}

// streamEvents is how many events each recorded stream holds, so every
// round streams the same amount whatever scenarios the seed picks; the
// per-event cost still varies by scenario, which 16 streams a round
// average out. 12,000 events are about 280 KB binary and 600 KB NDJSON,
// 5 to 19 chunks a session.
func streamEvents(o opts) int {
	if o.tiny {
		return 1_500
	}
	return 12_000
}

// chunkBytes is a session's chunk size; test-scale streams are 16 times
// shorter and use chunks 16 times smaller, so sessions still post many.
func chunkBytes(o opts, small bool) int {
	size := largeChunk
	if small {
		size = smallChunk
	}
	if o.tiny {
		size /= 16
	}
	return size
}

// recordStream simulates a fuzzed scenario on the default machine with a
// trace recorder attached as its estimator, the way paco-trace record
// -fuzz does, and returns the binary trace of its first n events.
// Branches still in flight at the cut are squashed when the session
// closes, in the server and in the offline replay alike.
func recordStream(seed uint64, n int) ([]byte, error) {
	spec, err := scenario.NewFuzzer(seed).Next().Compile()
	if err != nil {
		return nil, err
	}
	var full bytes.Buffer
	w, err := trace.NewWriter(&full)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(w)
	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if _, err := c.AddThread(spec, []core.Estimator{rec}); err != nil {
		return nil, err
	}
	for w.Events() < uint64(n) {
		c.Run(1_000, 0)
		if rec.Err() != nil {
			return nil, rec.Err()
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	evs, err := readEvents(full.Bytes())
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if w, err = trace.NewWriter(&out); err != nil {
		return nil, err
	}
	for _, ev := range evs[:n] {
		if err := w.Write(ev); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// chunkStream cuts stream i for its format and size class: even
// streams are binary, odd ones NDJSON; streams 0,1 (mod 4) use small
// chunks and 2,3 large ones.
func chunkStream(i int, raw []byte, size int) (*stream, error) {
	evs, err := readEvents(raw)
	if err != nil {
		return nil, err
	}
	s := &stream{raw: raw, events: len(evs)}
	if i%2 == 0 {
		s.format = session.FormatBinary
		for off := 0; off < len(raw); off += size {
			s.chunks = append(s.chunks, raw[off:min(off+size, len(raw))])
		}
		return s, nil
	}
	s.format = session.FormatNDJSON
	var chunk []byte
	for _, ev := range evs {
		line, err := session.MarshalNDJSON(ev)
		if err != nil {
			return nil, err
		}
		if len(chunk) > 0 && len(chunk)+len(line)+1 > size {
			s.chunks = append(s.chunks, chunk)
			chunk = nil
		}
		chunk = append(append(chunk, line...), '\n')
	}
	s.chunks = append(s.chunks, chunk)
	return s, nil
}

func readEvents(raw []byte) ([]trace.Event, error) {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var evs []trace.Event
	for {
		ev, err := r.Read()
		if errors.Is(err, io.EOF) {
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
}

// newSessions records the round's streams from seeded fuzz scenarios
// and starts the routed cluster.
func newSessions(o opts) (bench, error) {
	spec, err := session.ParseEstimators(estimatorList, 0, 0)
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	b := &sessionsBench{o: o, spec: spec, specJSON: specJSON,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * o.clients}}}
	for i := 0; i < sessionsPerRound; i++ {
		raw, err := recordStream(o.seed*sessionsPerRound+uint64(i)+1, streamEvents(o))
		if err != nil {
			return nil, fmt.Errorf("recording stream %d: %w", i, err)
		}
		s, err := chunkStream(i, raw, chunkBytes(o, (i/2)%2 == 0))
		if err != nil {
			return nil, err
		}
		b.streams = append(b.streams, s)
	}
	if err := b.startCluster(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *sessionsBench) startCluster() error {
	coord, err := server.New(server.Config{RouteSessions: true})
	if err != nil {
		return err
	}
	coord.Start()
	b.coord, b.coordTS = coord, httptest.NewServer(coord.Handler())
	for i := 0; i < sessionWorkers; i++ {
		srv, err := server.New(server.Config{})
		if err != nil {
			return err
		}
		srv.Start()
		sw := &sessionWorker{srv: srv, ts: httptest.NewServer(srv.Handler()), done: make(chan struct{})}
		b.workers = append(b.workers, sw)
		w, err := server.NewWorker(server.WorkerConfig{
			Coordinator: b.coordTS.URL,
			Name:        fmt.Sprintf("w%d", i+1),
			SessionsURL: sw.ts.URL,
		})
		if err != nil {
			close(sw.done)
			return err
		}
		var ctx context.Context
		ctx, sw.cancel = context.WithCancel(context.Background())
		go func() {
			defer close(sw.done)
			w.Run(ctx)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.coord.FederationStats().WorkersLive < sessionWorkers {
		if time.Now().After(deadline) {
			return fmt.Errorf("session workers did not register with the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (b *sessionsBench) close() {
	b.client.CloseIdleConnections()
	for _, w := range b.workers {
		if w.cancel != nil {
			w.cancel()
		}
		<-w.done
	}
	if b.coordTS != nil {
		b.coordTS.Close()
		b.coord.Close()
	}
	for _, w := range b.workers {
		w.ts.Close()
		w.srv.Close()
	}
}

// call is one HTTP round trip; it returns the status and body.
func (b *sessionsBench) call(method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// sessionRun is what one streamed session measured.
type sessionRun struct {
	close          float64
	chunks, scores []float64
	retries        int
	final          []byte
}

// stream runs one session against base (the coordinator, or a worker
// directly): open, every chunk with a scores read after each
// scoresEvery-th, close. A 429 is retried after a short pause and
// counted, up to maxRetries; any other unexpected answer fails the
// session.
func (b *sessionsBench) stream(tr *tracer, base string, s *stream, chunkSpan string, withScores bool) (sessionRun, error) {
	var out sessionRun
	root := tr.begin("sessions", "session", 0)
	defer root.end()
	sp := tr.begin("sessions", "session.open", root.ID())
	status, body, err := b.call(http.MethodPost, base+"/v1/sessions", "application/json", b.specJSON)
	sp.end()
	if err != nil {
		return out, err
	}
	if status != http.StatusCreated {
		return out, fmt.Errorf("open: status %d: %s", status, body)
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &opened); err != nil {
		return out, fmt.Errorf("open: %w", err)
	}
	url := base + "/v1/sessions/" + opened.ID
	for k, chunk := range s.chunks {
		for {
			sp = tr.begin("sessions", chunkSpan, root.ID())
			t0 := time.Now()
			status, body, err = b.call(http.MethodPost, url+"/events", s.contentType(), chunk)
			d := ms(time.Since(t0))
			sp.end()
			if err != nil {
				return out, err
			}
			if status == http.StatusTooManyRequests {
				out.retries++
				if out.retries > maxRetries {
					return out, fmt.Errorf("chunk %d: still refused after %d retries", k, maxRetries)
				}
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if status != http.StatusAccepted {
				return out, fmt.Errorf("chunk %d: status %d: %s", k, status, body)
			}
			out.chunks = append(out.chunks, d)
			break
		}
		if withScores && (k+1)%scoresEvery == 0 {
			sp = tr.begin("sessions", "session.scores", root.ID())
			t0 := time.Now()
			status, body, err = b.call(http.MethodGet, url+"/scores", "", nil)
			out.scores = append(out.scores, ms(time.Since(t0)))
			sp.end()
			if err != nil {
				return out, err
			}
			if status != http.StatusOK {
				return out, fmt.Errorf("scores: status %d: %s", status, body)
			}
		}
	}
	sp = tr.begin("sessions", "session.close", root.ID())
	t0 := time.Now()
	status, body, err = b.call(http.MethodDelete, url, "", nil)
	out.close = ms(time.Since(t0))
	sp.end()
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("close: status %d: %s", status, body)
	}
	out.final = body
	return out, nil
}

func (b *sessionsBench) round(tr *tracer, idx int) (roundStats, error) {
	rs := newRound()
	var mu sync.Mutex
	var wg sync.WaitGroup
	next, events, retries, chunks := 0, 0, 0, 0
	finals := make([][]byte, len(b.streams))
	if tr != nil {
		stop := b.sampleJournal()
		defer stop()
	}
	start := time.Now()
	for c := 0; c < b.o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(b.streams) {
					return
				}
				s := b.streams[i]
				run, err := b.stream(tr, b.coordTS.URL, s, "router.chunk", true)
				mu.Lock()
				// Every request is one operation: open, chunks, scores
				// reads, close.
				rs.attempted += 2 + len(run.chunks) + len(run.scores)
				retries += run.retries
				chunks += len(run.chunks) + run.retries
				if err != nil {
					rs.fail("sessions round %d stream %d: %v", idx, i, err)
				} else {
					events += s.events
					rs.lat["close"] = append(rs.lat["close"], run.close)
					finals[i] = run.final
				}
				rs.lat["chunk"] = append(rs.lat["chunk"], run.chunks...)
				rs.lat["scores"] = append(rs.lat["scores"], run.scores...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rs.wall = time.Since(start)
	rs.vals["round_s"] = rs.wall.Seconds()
	rs.vals["events_per_s"] = float64(events) / rs.wall.Seconds()
	b.retries, b.chunks = retries, chunks

	// The finals are checked here, outside the round's wall time, and
	// dropped, so the heap the run samples holds no more than one
	// round's of them.
	for i, body := range finals {
		if body == nil {
			continue
		}
		b.checked++
		if err := b.checkFinal(b.streams[i], body); err != nil {
			rs.fail("sessions round %d stream %d: %v", idx, i, err)
		}
	}
	return rs, nil
}

// checkFinal compares a session's final document with the offline
// replay of its stream, which it computes on first use.
func (b *sessionsBench) checkFinal(s *stream, body []byte) error {
	if s.want == nil {
		want, err := replayFinal(s.raw, b.spec)
		if err != nil {
			return fmt.Errorf("offline replay: %w", err)
		}
		s.want = want
	}
	return checkSessionFinal(body, s.want)
}

// journalGauge is the coordinator's gauge of the bytes its router holds
// in failover journals.
const journalGauge = "paco_session_routed_journal_bytes"

// sampleJournal reads the coordinator's journal gauge from /metrics
// every 5 ms until the returned function is called, keeping the peak in
// b.journalPeak.
func (b *sessionsBench) sampleJournal() func() {
	read := func() {
		status, body, err := b.call(http.MethodGet, b.coordTS.URL+"/metrics", "", nil)
		if err != nil || status != http.StatusOK {
			return
		}
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, journalGauge+" "); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					b.journalPeak = max(b.journalPeak, int(f))
				}
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// replayFinal is the offline reference for a session's final scores:
// session.Replay over the same events, rendered as the server renders
// the DELETE body.
func replayFinal(raw []byte, spec session.Spec) ([]byte, error) {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	sc, err := session.Replay(r, spec)
	if err != nil {
		return nil, err
	}
	want, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(want, '\n'), nil
}

// checkSessionFinal requires a streamed session's final document to be
// byte-equal to the offline replay of its events.
func checkSessionFinal(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("final scores differ from session.Replay of the same events:\n got %s\nwant %s", got, want)
	}
	return nil
}

// verify reports how many finals the rounds compared with the offline
// replay; each round records its own mismatches.
func (b *sessionsBench) verify([]roundStats) (int, []string) {
	n := b.checked
	b.checked = 0
	return n, nil
}

// layers replays the recorded streams one layer at a time: the two
// decoders, the session table's ingest, the estimator fan-out, PaCo
// alone, the journal, then every session streamed directly to a worker
// and through the router, one client at a time, so router.proxy.ms is
// routed minus direct on identical chunks.
func (b *sessionsBench) layers(tr *tracer) (map[string]float64, error) {
	m := map[string]float64{
		"session.backpressure.retries": float64(b.retries),
		"session.chunks":               float64(b.chunks),
	}
	var decodeD, ndjsonD, applyD, pacoD, bareD, appendD time.Duration
	var binEvents, ndEvents, events, appends int
	for _, s := range b.streams {
		if s.format == session.FormatBinary {
			var dec trace.Decoder
			sp := tr.begin("sessions.replay", "trace.decode", 0)
			start := time.Now()
			for _, chunk := range s.chunks {
				if err := dec.Feed(chunk, func(trace.Event) error { binEvents++; return nil }); err != nil {
					return nil, err
				}
			}
			decodeD += time.Since(start)
			sp.end()
		} else {
			sp := tr.begin("sessions.replay", "session.ndjson", 0)
			start := time.Now()
			for _, chunk := range s.chunks {
				evs, _, err := session.DecodeNDJSON(chunk)
				if err != nil {
					return nil, err
				}
				ndEvents += len(evs)
			}
			ndjsonD += time.Since(start)
			sp.end()
		}

		evs, err := readEvents(s.raw)
		if err != nil {
			return nil, err
		}
		sess, err := session.New(b.spec)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("sessions.replay", "session.apply", 0)
		start := time.Now()
		if err := sess.ApplyAll(evs); err != nil {
			return nil, err
		}
		applyD += time.Since(start)
		sp.end()
		events += len(evs)

		// PaCo alone: a trace replay into one PaCo estimator, minus the
		// same replay into none (reading and tag bookkeeping).
		for _, ests := range [][]core.Estimator{nil, {core.NewPaCo(core.PaCoConfig{})}} {
			r, err := trace.NewReader(bytes.NewReader(s.raw))
			if err != nil {
				return nil, err
			}
			name := "trace.replay"
			if ests != nil {
				name = "core.paco"
			}
			sp := tr.begin("sessions.replay", name, 0)
			start := time.Now()
			if _, err := trace.Replay(r, ests); err != nil {
				return nil, err
			}
			if ests == nil {
				bareD += time.Since(start)
			} else {
				pacoD += time.Since(start)
			}
			sp.end()
		}

		j := session.NewJournal()
		sp = tr.begin("sessions.replay", "router.journal.append", 0)
		start = time.Now()
		for _, chunk := range s.chunks {
			if err := j.Append(s.format, chunk); err != nil {
				return nil, err
			}
		}
		appendD += time.Since(start)
		sp.end()
		appends += len(s.chunks)
	}
	m["trace.decode.ns_per_event"] = float64(decodeD.Nanoseconds()) / float64(max(binEvents, 1))
	m["session.ndjson.ns_per_event"] = float64(ndjsonD.Nanoseconds()) / float64(max(ndEvents, 1))
	m["session.apply.ns_per_event"] = float64(applyD.Nanoseconds()) / float64(events)
	m["core.paco.ns_per_event"] = float64((pacoD - bareD).Nanoseconds()) / float64(events)
	m["router.journal.append.us"] = float64(appendD.Nanoseconds()) / 1e3 / float64(appends)
	if b.journalPeak == 0 {
		return nil, fmt.Errorf("the coordinator's %s gauge never read above 0 in a traced round", journalGauge)
	}
	m["router.journal.bytes_peak"] = float64(b.journalPeak)

	ingest, err := b.tableIngest(tr)
	if err != nil {
		return nil, err
	}
	m["session.table.ingest.us_per_chunk"] = ingest

	var direct, routed []float64
	for _, s := range b.streams {
		run, err := b.stream(tr, b.workers[0].ts.URL, s, "server.session.chunk", false)
		if err != nil {
			return nil, fmt.Errorf("direct stream: %w", err)
		}
		direct = append(direct, run.chunks...)
		run, err = b.stream(tr, b.coordTS.URL, s, "router.replay.chunk", false)
		if err != nil {
			return nil, fmt.Errorf("routed stream: %w", err)
		}
		routed = append(routed, run.chunks...)
	}
	m["server.session.chunk.ms"] = median(direct)
	m["router.chunk.ms"] = median(routed)
	m["router.proxy.ms"] = median(routed) - median(direct)
	return m, nil
}

// tableIngest feeds every stream's chunks into a fresh session table
// (decode and enqueue; the table's shard goroutines apply) and returns
// the mean microseconds per accepted chunk. A full queue is waited out.
func (b *sessionsBench) tableIngest(tr *tracer) (float64, error) {
	t := session.NewTable(session.TableConfig{})
	defer t.Shutdown()
	var d time.Duration
	n := 0
	for _, s := range b.streams {
		id, _, _, err := t.Open(b.spec, "perfbench")
		if err != nil {
			return 0, err
		}
		for _, chunk := range s.chunks {
			for {
				sp := tr.begin("sessions.replay", "session.table.ingest", 0)
				start := time.Now()
				_, _, err := t.Ingest(id, s.format, chunk)
				el := time.Since(start)
				sp.end()
				var bp *session.BackpressureError
				if errors.As(err, &bp) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					return 0, err
				}
				d += el
				n++
				break
			}
		}
		if _, err := t.Close(id, session.CloseClient); err != nil {
			return 0, err
		}
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n), nil
}
