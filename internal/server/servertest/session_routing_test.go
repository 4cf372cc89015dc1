package servertest_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"paco/internal/server"
	"paco/internal/server/servertest"
	"paco/internal/session"
	"paco/internal/trace"
)

// openRouted opens a session through a routing coordinator, retrying
// while the federation has no live session workers yet (workers
// advertise their endpoints through lease polls, so the first poll has
// to land before the router can place anything).
func openRouted(t *testing.T, base, spec string) (id, worker string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			var opened struct {
				ID     string `json:"id"`
				Worker string `json:"worker"`
			}
			if err := json.Unmarshal(raw, &opened); err != nil {
				t.Fatal(err)
			}
			if opened.Worker == "" {
				t.Fatalf("routed open did not name an owning worker: %s", raw)
			}
			return opened.ID, opened.Worker
		}
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("routed open → %d: %s", resp.StatusCode, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// postRouted posts one ingest chunk, retrying 429 backpressure with the
// identical bytes.
func postRouted(base, id, contentType string, chunk []byte) error {
	for {
		resp, err := http.Post(base+"/v1/sessions/"+id+"/events", contentType, bytes.NewReader(chunk))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return nil
		case http.StatusTooManyRequests:
			time.Sleep(time.Millisecond)
		default:
			return fmt.Errorf("ingest → %d: %s", resp.StatusCode, body)
		}
	}
}

// TestSessionRoutingFailover is the tentpole acceptance test: a routed
// session streaming through a 3-worker federation has its owning worker
// killed mid-stream — connections severed, no drain — and must finish
// with final scores byte-identical to an uninterrupted offline replay
// of the same events, its live SSE stream intact through the failover
// and terminated by the "final" frame, and no goroutine left behind.
func TestSessionRoutingFailover(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := servertest.New(t, servertest.Config{
		Workers:        3,
		SessionWorkers: true,
		Server: server.Config{
			JobWorkers: 1,
			CacheBytes: 1 << 20,
			// Routed-session coordinator; TTLs stay at their defaults
			// (5m), far above the test's runtime, so failover — not
			// eviction — is the only close path in play.
			RouteSessions: true,
		},
	})

	var spec session.Spec
	if err := json.Unmarshal([]byte(soakSpec), &spec); err != nil {
		t.Fatal(err)
	}
	evs := soakEvents(424242, 20000)
	raw := soakTraceBytes(t, evs)

	id, owner := openRouted(t, c.URL(), soakSpec)
	t.Logf("session %s owned by %s", id, owner)

	// Subscribe to the live stream before any events flow; the terminal
	// "final" frame must arrive even though the owner dies mid-stream.
	finalCh := make(chan session.Scores, 1)
	sseErr := make(chan error, 1)
	go func() {
		sseErr <- func() error {
			resp, err := http.Get(c.URL() + "/v1/sessions/" + id + "/live")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("live → %d", resp.StatusCode)
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
			var name, data string
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "event: "):
					name = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "data: "):
					data = strings.TrimPrefix(line, "data: ")
				case line == "" && name == "final":
					var final session.Scores
					if err := json.Unmarshal([]byte(data), &final); err != nil {
						return err
					}
					finalCh <- final
					return nil
				}
			}
			return fmt.Errorf("live stream ended without a final frame: %v", sc.Err())
		}()
	}()

	// Stream in record-misaligned chunks; kill the owner halfway. Every
	// chunk acknowledged before the kill is in the coordinator's journal
	// and must survive into the replayed session.
	const chunkSize = 997
	killAt := len(raw) / 2
	killed := false
	for off := 0; off < len(raw); {
		end := off + chunkSize
		if end > len(raw) {
			end = len(raw)
		}
		if !killed && off >= killAt {
			c.KillWorker(owner)
			killed = true
		}
		if err := postRouted(c.URL(), id, "application/octet-stream", raw[off:end]); err != nil {
			t.Fatalf("chunk at %d (killed=%v): %v", off, killed, err)
		}
		off = end
	}
	if !killed {
		t.Fatal("owner was never killed; trace too small")
	}

	// Offline reference: byte-identical finals despite the failover.
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := session.Replay(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(offline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	req, _ := http.NewRequest(http.MethodDelete, c.URL()+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close → %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed-over final scores differ from offline replay:\n got %s\nwant %s", got, want)
	}

	// The subscriber's stream survived the owner's death and terminated
	// with the same final document.
	select {
	case err := <-sseErr:
		if err != nil {
			t.Fatalf("live subscriber: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("live subscriber never saw the final frame")
	}
	final := <-finalCh
	if !final.Final || final.Events != uint64(len(evs)) {
		t.Fatalf("SSE final = %+v, want Final with %d events", final, len(evs))
	}

	// Stragglers see deterministic verdicts: the closed ID answers 410
	// naming the close reason, an unknown ID answers 404.
	for _, probe := range []struct {
		id, contains string
		status       int
	}{
		{id, "client", http.StatusGone},
		{"s-000000000000-999999", "", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(http.MethodDelete, c.URL()+"/v1/sessions/"+probe.id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != probe.status || !strings.Contains(string(body), probe.contains) {
			t.Fatalf("DELETE %s → %d %s, want %d containing %q",
				probe.id, resp.StatusCode, body, probe.status, probe.contains)
		}
	}

	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := metricValue(metrics, "paco_session_failover_total"); !ok || v < 1 {
		t.Errorf("paco_session_failover_total = %v (found %v), want >= 1", v, ok)
	}
	if v, _ := metricValue(metrics, "paco_session_routed_opened_total"); v != 1 {
		t.Errorf("paco_session_routed_opened_total = %v, want 1", v)
	}
	if v, _ := metricValue(metrics, `paco_session_routed_closed_total{reason="client"}`); v != 1 {
		t.Errorf(`paco_session_routed_closed_total{reason="client"} = %v, want 1`, v)
	}
	if v, _ := metricValue(metrics, "paco_session_routed_open"); v != 0 {
		t.Errorf("paco_session_routed_open = %v, want 0 after close", v)
	}
	if v, ok := metricValue(metrics, "paco_session_failover_replayed_chunks_total"); !ok || v < 1 {
		t.Errorf("paco_session_failover_replayed_chunks_total = %v, want >= 1", v)
	}

	// Everything down, nothing leaked — the router's sweeper, the SSE
	// proxy, and the dead worker's sub-server goroutines all drained.
	c.Close()
	leakDeadline := time.Now().Add(15 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSessionRoutingPlacement pins the rendezvous placement properties
// the router depends on: many sessions spread across all live workers,
// and every request for one session lands on its one owner.
func TestSessionRoutingPlacement(t *testing.T) {
	c := servertest.New(t, servertest.Config{
		Workers:        3,
		SessionWorkers: true,
		Server: server.Config{
			JobWorkers:    1,
			CacheBytes:    1 << 20,
			RouteSessions: true,
		},
	})

	owners := map[string]int{}
	var ids []string
	for i := 0; i < 24; i++ {
		id, worker := openRouted(t, c.URL(), soakSpec)
		owners[worker]++
		ids = append(ids, id)
	}
	if len(owners) != 3 {
		t.Errorf("24 sessions landed on %d of 3 workers: %v", len(owners), owners)
	}
	// Each session is routable: scores answer 200 from wherever it lives.
	for _, id := range ids {
		resp, err := http.Get(c.URL() + "/v1/sessions/" + id + "/scores")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scores %s → %d", id, resp.StatusCode)
		}
	}
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := metricValue(metrics, "paco_session_routed_open"); v != 24 {
		t.Errorf("paco_session_routed_open = %v, want 24", v)
	}
}

// TestSessionNDJSONLineBound posts newline-free chunks that would grow a
// session's held partial line past session.MaxNDJSONLine, straight to a
// session worker and through the routing coordinator. Each is refused
// with 400 naming session.ErrLineTooLong, the stream resumes where it
// was, and the close still returns 200 with the replay's final scores.
func TestSessionNDJSONLineBound(t *testing.T) {
	worker, err := server.New(server.Config{JobWorkers: 1, CacheBytes: 1 << 20, SampleInterval: -1, FlightSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	worker.Start()
	workerHTTP := httptest.NewServer(worker.Handler())
	t.Cleanup(func() {
		workerHTTP.Close()
		worker.Close()
	})
	c := servertest.New(t, servertest.Config{
		Workers:        2,
		SessionWorkers: true,
		Server:         server.Config{JobWorkers: 1, CacheBytes: 1 << 20, RouteSessions: true},
	})

	var spec session.Spec
	if err := json.Unmarshal([]byte(soakSpec), &spec); err != nil {
		t.Fatal(err)
	}
	evs := soakEvents(77, 200)
	var doc bytes.Buffer
	for _, ev := range evs {
		line, err := session.MarshalNDJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		doc.Write(line)
	}
	offline, err := session.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := offline.ApplyAll(evs); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(offline.Close(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	post := func(base, id string, chunk []byte) (int, string) {
		resp, err := http.Post(base+"/v1/sessions/"+id+"/events", "application/x-ndjson", bytes.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	for _, tc := range []struct {
		name, base string
		open       func() string
	}{
		{"worker", workerHTTP.URL, func() string {
			resp, err := http.Post(workerHTTP.URL+"/v1/sessions", "application/json", strings.NewReader(soakSpec))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var opened struct{ ID string }
			if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil || resp.StatusCode != http.StatusCreated {
				t.Fatalf("open → %d, %v", resp.StatusCode, err)
			}
			return opened.ID
		}},
		{"router", c.URL(), func() string {
			id, _ := openRouted(t, c.URL(), soakSpec)
			return id
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := tc.open()
			const cut = 1000 // mid-line
			if status, body := post(tc.base, id, doc.Bytes()[:cut]); status != http.StatusAccepted {
				t.Fatalf("first chunk → %d: %s", status, body)
			}
			junk := bytes.Repeat([]byte{' '}, session.MaxNDJSONLine)
			for i := 0; i < 3; i++ {
				status, body := post(tc.base, id, junk)
				if status != http.StatusBadRequest || !strings.Contains(body, session.ErrLineTooLong.Error()) {
					t.Fatalf("newline-free chunk %d → %d: %s", i, status, body)
				}
			}
			if status, body := post(tc.base, id, doc.Bytes()[cut:]); status != http.StatusAccepted {
				t.Fatalf("rest of stream → %d: %s", status, body)
			}
			req, _ := http.NewRequest(http.MethodDelete, tc.base+"/v1/sessions/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("close → %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("final scores differ from offline replay:\n got %s\nwant %s", got, want)
			}
		})
	}
}
