package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"paco/internal/trace"
)

// oneOfEachKind is one event of every kind with every field it carries
// set, so its canonical NDJSON line exercises each wire key.
var oneOfEachKind = []trace.Event{
	{Kind: trace.EvFetch, Tag: 7, PC: 0x4040, History: 0xBEEF, MDC: 3, Flags: 1},
	{Kind: trace.EvResolve, Tag: 7},
	{Kind: trace.EvSquash, Tag: 8},
	{Kind: trace.EvRetire, PC: 0x4040, History: 0xBEEF, MDC: 3, Flags: 3},
	{Kind: trace.EvCycle, PC: 6400},
}

// parseNDJSONLineJSON is the reference decoder: encoding/json alone,
// with the error wrapping parseNDJSONLine has always used.
func parseNDJSONLineJSON(line []byte) (trace.Event, error) {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		return trace.Event{}, fmt.Errorf("session: bad event line: %w", err)
	}
	return w.event()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzNDJSONLine checks the byte scanner against encoding/json: a line
// the scanner accepts must decode to the same wireEvent under
// json.Unmarshal, and parseNDJSONLine must return the reference's event
// and error text for every input, scanned or not.
func FuzzNDJSONLine(f *testing.F) {
	for _, ev := range oneOfEachKind {
		line, err := MarshalNDJSON(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimSpace(line))
	}
	for _, s := range []string{
		`{}`,
		` { "kind" : "fetch" ,	"tag" : 7 , "mdc":3 }`,
		"{\"kind\":\"cycle\",\r\n\"cycle\":64}",
		`{"KIND":"fetch"}`,
		`{"Kind":"retire","pc":1}`,
		`{"kind":null}`,
		`{"kind":"fetch","tag":null}`,
		`{"kind":"fetch","tag":1}`,
		`{"kind":"fe\"tch"}`,
		`{"kind":"\u0066etch"}`,
		`{"ki\u006ed":"fetch"}`,
		`{"kind":"warp"}`,
		`{"kind":""}`,
		`{"kind":"fetch","mdc":255}`,
		`{"kind":"fetch","mdc":256}`,
		`{"kind":"fetch","tag":01}`,
		`{"kind":"fetch","tag":0}`,
		`{"kind":"cycle","cycle":1.0}`,
		`{"kind":"cycle","cycle":1e3}`,
		`{"kind":"cycle","cycle":-0}`,
		`{"kind":"cycle","cycle":-1}`,
		`{"kind":"cycle","cycle":18446744073709551615}`,
		`{"kind":"cycle","cycle":18446744073709551616}`,
		`{"kind":"fetch","history":4294967295}`,
		`{"kind":"fetch","history":4294967296}`,
		`{"kind":"fetch","kind":"squash","tag":1,"tag":2}`,
		`{"kind":"retire","correct":true,"correct":false}`,
		`{"kind":"retire","conditional":1}`,
		`{"kind":"retire","conditional":truex}`,
		`{"kind":"fetch","extra":1}`,
		`{"kind":"fetch","tag":[1]}`,
		`{"kind":"fetch"} x`,
		`{"kind":"fetch"}}`,
		`{"kind":"fetch",}`,
		`{"kind":"fetch"`,
		`[{"kind":"fetch"}]`,
		`"fetch"`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var w wireEvent
		if scanWireEvent(line, &w) {
			var ref wireEvent
			if err := json.Unmarshal(line, &ref); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", line, err)
			}
			if w != ref {
				t.Fatalf("scanner decoded %q as %+v, encoding/json as %+v", line, w, ref)
			}
		}
		got, gotErr := parseNDJSONLine(line)
		want, wantErr := parseNDJSONLineJSON(line)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("parseNDJSONLine(%q) = %+v, %v; reference %+v, %v", line, got, gotErr, want, wantErr)
		}
	})
}

// decodeSplit decodes doc cut at the given offsets, stitching each
// piece's unterminated tail onto the next as Table.Ingest does, and
// stops at the first error.
func decodeSplit(doc []byte, cuts ...int) ([]trace.Event, []byte, error) {
	var evs []trace.Event
	var rem []byte
	prev := 0
	for _, cut := range append(cuts, len(doc)) {
		data := append(append([]byte(nil), rem...), doc[prev:cut]...)
		prev = cut
		batch, rest, err := DecodeNDJSON(data)
		evs = append(evs, batch...)
		if err != nil {
			return evs, nil, err
		}
		rem = append(rem[:0], rest...)
	}
	return evs, rem, nil
}

// FuzzDecodeNDJSONSplit: where a chunk boundary falls must not change
// what the stream decodes to — events, remainder, or error.
func FuzzDecodeNDJSONSplit(f *testing.F) {
	var doc bytes.Buffer
	for _, ev := range append(oneOfEachKind, SyntheticEvents(5, 10)...) {
		line, err := MarshalNDJSON(ev)
		if err != nil {
			f.Fatal(err)
		}
		doc.Write(line)
	}
	f.Add(doc.Bytes(), uint16(0), uint16(0))
	f.Add(doc.Bytes(), uint16(17), uint16(300))
	f.Add(doc.Bytes(), uint16(doc.Len()-3), uint16(1))
	f.Add([]byte("{\"kind\":\"cycle\",\"cycle\":1}\r\n\n  \n{\"kind\":\"squash\",\"tag\":2}\n{\"kind\":\"cyc"), uint16(5), uint16(40))
	f.Add([]byte("{\"kind\":\"fetch\",\"tag\":1}\n{\"kind\":\"warp\"}\n{\"kind\":\"resolve\",\"tag\":1}\n"), uint16(30), uint16(9))
	f.Fuzz(func(t *testing.T, doc []byte, a, b uint16) {
		cuts := []int{int(a) % (len(doc) + 1), int(b) % (len(doc) + 1)}
		slices.Sort(cuts)
		want, wantRest, wantErr := DecodeNDJSON(doc)
		got, gotRest, gotErr := decodeSplit(doc, cuts...)
		if !slices.Equal(got, want) || !bytes.Equal(gotRest, wantRest) || errText(gotErr) != errText(wantErr) {
			t.Fatalf("split at %v: %d events, rest %q, err %v; unsplit %d events, rest %q, err %v",
				cuts, len(got), gotRest, gotErr, len(want), wantRest, wantErr)
		}
	})
}

// TestDecodeNDJSONBatchBound: blank-line padding must not size the
// event batch from its newline count. The batch stays within one slot
// per shortest event line, under twice the chunk's bytes.
func TestDecodeNDJSONBatchBound(t *testing.T) {
	event := []byte(`{"kind":"cycle","cycle":64}` + "\n")
	for name, data := range map[string][]byte{
		"newlines":             bytes.Repeat([]byte{'\n'}, 1<<16),
		"spaced newlines":      bytes.Repeat([]byte(" \n"), 1<<15),
		"event then newlines":  append(slices.Clone(event), bytes.Repeat([]byte{'\n'}, 1<<16)...),
		"event among newlines": append(bytes.Repeat([]byte{'\n'}, 1<<16), event...),
	} {
		evs, rest, err := DecodeNDJSON(data)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: rest %q, %v", name, rest, err)
		}
		if limit := len(data)/minNDJSONEvent + 1; cap(evs) > limit {
			t.Errorf("%s: %d bytes sized a batch of %d events, want at most %d", name, len(data), cap(evs), limit)
		}
	}
}

// TestDecodeNDJSONLineBound: a line longer than MaxNDJSONLine is refused
// with ErrLineTooLong whether it arrives whole or cut across chunks, and
// a line of exactly the bound is accepted either way, so the bound does
// not depend on where a stream is cut. (The fuzzed split target rarely
// reaches lines this long.)
func TestDecodeNDJSONLineBound(t *testing.T) {
	event := `{"kind":"cycle","cycle":64}`
	padded := func(n int) string { return strings.Repeat(" ", n-len(event)) + event }
	docs := []struct {
		name    string
		doc     string
		events  int
		tooLong bool
	}{
		{"line of the bound", event + "\n" + padded(MaxNDJSONLine) + "\n" + event + "\n", 3, false},
		{"line past the bound", event + "\n" + padded(MaxNDJSONLine+1) + "\n" + event + "\n", 1, true},
		{"blank line past the bound", event + "\n" + strings.Repeat(" ", MaxNDJSONLine+1) + "\n", 1, true},
		{"tail of the bound", event + "\n" + strings.Repeat(" ", MaxNDJSONLine), 1, false},
		{"tail past the bound", event + "\n" + strings.Repeat(" ", MaxNDJSONLine+1), 1, true},
	}
	for _, tc := range docs {
		doc := []byte(tc.doc)
		want, wantRest, wantErr := DecodeNDJSON(doc)
		if len(want) != tc.events || errors.Is(wantErr, ErrLineTooLong) != tc.tooLong {
			t.Fatalf("%s: %d events, %v; want %d events, too long %v", tc.name, len(want), wantErr, tc.events, tc.tooLong)
		}
		if wantErr != nil && !errors.Is(wantErr, ErrLineTooLong) {
			t.Fatalf("%s: %v", tc.name, wantErr)
		}
		cuts := []int{0, 1, len(event), len(event) + 1, 1000, MaxNDJSONLine / 2, MaxNDJSONLine, MaxNDJSONLine + 1, len(doc) - 1, len(doc)}
		for _, a := range cuts {
			for _, b := range cuts {
				if a > b || b > len(doc) {
					continue
				}
				got, gotRest, gotErr := decodeSplit(doc, a, b)
				if !slices.Equal(got, want) || !bytes.Equal(gotRest, wantRest) || !errors.Is(gotErr, wantErr) {
					t.Fatalf("%s split at %d, %d: %d events, %d-byte rest, %v; unsplit %d events, %d-byte rest, %v",
						tc.name, a, b, len(got), len(gotRest), gotErr, len(want), len(wantRest), wantErr)
				}
			}
		}
	}
}

// TestNDJSONZeroAllocs pins the canonical-line path: decoding a line of
// any kind allocates nothing, and a multi-line chunk allocates only its
// event batch, whatever its line count.
func TestNDJSONZeroAllocs(t *testing.T) {
	for _, ev := range oneOfEachKind {
		line, err := MarshalNDJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		line = bytes.TrimSpace(line)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := parseNDJSONLine(line); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("parseNDJSONLine(%s) allocates %.2f times, want 0", line, allocs)
		}
	}
	for _, n := range []int{10, 1000} {
		doc := ndjsonDoc(t, SyntheticEvents(9, n))
		allocs := testing.AllocsPerRun(20, func() {
			if evs, _, err := DecodeNDJSON(doc); err != nil || len(evs) != n {
				t.Fatalf("DecodeNDJSON: %d events, %v", len(evs), err)
			}
		})
		if allocs > 1 {
			t.Errorf("DecodeNDJSON of %d lines allocates %.2f times, want at most 1", n, allocs)
		}
	}
}

// BenchmarkDecodeNDJSON decodes a chunk of 4,000 canonical lines.
func BenchmarkDecodeNDJSON(b *testing.B) {
	var doc bytes.Buffer
	for _, ev := range SyntheticEvents(1, 4000) {
		line, err := MarshalNDJSON(ev)
		if err != nil {
			b.Fatal(err)
		}
		doc.Write(line)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodeNDJSON(doc.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4000), "ns/event")
}
