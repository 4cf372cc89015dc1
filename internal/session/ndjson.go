package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"paco/internal/trace"
)

// NDJSON is the text wire format for session ingest: one JSON object per
// line, mirroring the binary trace records so either encoding of the
// same event stream drives a session identically.
//
//	{"kind":"fetch","tag":7,"pc":16448,"history":48879,"mdc":3,"conditional":true}
//	{"kind":"resolve","tag":7}
//	{"kind":"squash","tag":8}
//	{"kind":"retire","pc":16448,"history":48879,"mdc":3,"conditional":true,"correct":true}
//	{"kind":"cycle","cycle":6400}
type wireEvent struct {
	Kind        string `json:"kind"`
	Tag         uint64 `json:"tag,omitempty"`
	PC          uint64 `json:"pc,omitempty"`
	History     uint32 `json:"history,omitempty"`
	MDC         uint8  `json:"mdc,omitempty"`
	Conditional bool   `json:"conditional,omitempty"`
	Correct     bool   `json:"correct,omitempty"`
	Cycle       uint64 `json:"cycle,omitempty"`
}

// MaxNDJSONLine bounds every NDJSON line, complete or still waiting for
// its newline. A canonical event line is under 200 bytes; the bound
// stops a client that never sends a newline from growing the held
// remainder (and the per-chunk copy of it) without limit. Because it
// holds for complete lines too, where the chunks are cut never decides
// whether a stream is accepted.
const MaxNDJSONLine = 64 << 10

// ErrLineTooLong rejects an NDJSON line longer than MaxNDJSONLine (400
// over HTTP).
var ErrLineTooLong = fmt.Errorf("session: NDJSON line longer than %d bytes", MaxNDJSONLine)

// minNDJSONEvent is the length of the shortest line that decodes to an
// event, `{"kind":"fetch"}` and its newline. It caps the batch estimate,
// so blank-line padding cannot size a batch past twice the chunk's bytes.
const minNDJSONEvent = len(`{"kind":"fetch"}` + "\n")

// kindNames maps binary event kinds to their NDJSON spellings (index by
// EventKind; slot 0 unused).
var kindNames = [...]string{"", "fetch", "resolve", "squash", "retire", "cycle"}

// parseNDJSONLine decodes one NDJSON line into a trace event. The byte
// scanner takes the lines clients actually send; anything it is not
// certain of goes to encoding/json, which stays the one definition of
// the accepted language and of every error text.
func parseNDJSONLine(line []byte) (trace.Event, error) {
	var w wireEvent
	if !scanWireEvent(line, &w) {
		// A variable of its own: handing &w to json.Unmarshal would move
		// it to the heap on every line, scanned or not.
		var ref wireEvent
		if err := json.Unmarshal(line, &ref); err != nil {
			return trace.Event{}, fmt.Errorf("session: bad event line: %w", err)
		}
		w = ref
	}
	return w.event()
}

// event converts a decoded wire object into a trace event.
func (w *wireEvent) event() (trace.Event, error) {
	ev := trace.Event{Tag: w.Tag, PC: w.PC, History: w.History, MDC: w.MDC}
	if w.Conditional {
		ev.Flags |= 1
	}
	if w.Correct {
		ev.Flags |= 2
	}
	switch w.Kind {
	case "fetch":
		ev.Kind = trace.EvFetch
	case "resolve":
		ev.Kind = trace.EvResolve
	case "squash":
		ev.Kind = trace.EvSquash
	case "retire":
		ev.Kind = trace.EvRetire
	case "cycle":
		ev.Kind = trace.EvCycle
		ev.PC = w.Cycle
	default:
		return trace.Event{}, fmt.Errorf("session: unknown event kind %q", w.Kind)
	}
	return ev, nil
}

// scanWireEvent fills w from line without allocating and reports
// whether it could do so with certainty: one flat object of exactly
// spelled wire keys, an unescaped kind naming one of the five kinds,
// unsigned integers in range for their field (no sign, fraction,
// exponent or leading zero), true/false, and JSON whitespace between
// tokens. A repeated key overwrites, as in encoding/json. On false w
// may be partly filled and the caller must decode line afresh.
func scanWireEvent(line []byte, w *wireEvent) bool {
	i := skipJSONSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return false
	}
	i = skipJSONSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return skipJSONSpace(line, i+1) == len(line)
	}
	for {
		key, ok := scanPlainString(line, &i)
		if !ok {
			return false
		}
		i = skipJSONSpace(line, i)
		if i == len(line) || line[i] != ':' {
			return false
		}
		i = skipJSONSpace(line, i+1)
		switch string(key) {
		case "kind":
			var name []byte
			if name, ok = scanPlainString(line, &i); ok {
				w.Kind, ok = lookupKind(name)
			}
		case "tag":
			ok = scanUint(line, &i, math.MaxUint64, &w.Tag)
		case "pc":
			ok = scanUint(line, &i, math.MaxUint64, &w.PC)
		case "cycle":
			ok = scanUint(line, &i, math.MaxUint64, &w.Cycle)
		case "history":
			var v uint64
			ok = scanUint(line, &i, math.MaxUint32, &v)
			w.History = uint32(v)
		case "mdc":
			var v uint64
			ok = scanUint(line, &i, math.MaxUint8, &v)
			w.MDC = uint8(v)
		case "conditional":
			ok = scanBool(line, &i, &w.Conditional)
		case "correct":
			ok = scanBool(line, &i, &w.Correct)
		default:
			return false
		}
		if !ok {
			return false
		}
		i = skipJSONSpace(line, i)
		if i == len(line) {
			return false
		}
		switch line[i] {
		case '}':
			return skipJSONSpace(line, i+1) == len(line)
		case ',':
			i = skipJSONSpace(line, i+1)
		default:
			return false
		}
	}
}

// lookupKind returns the kindNames entry spelled by name, so the
// decoded Kind shares the constant instead of a copy of the line.
func lookupKind(name []byte) (string, bool) {
	for _, k := range kindNames[1:] {
		if string(name) == k {
			return k, true
		}
	}
	return "", false
}

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanPlainString reads the string token at b[*i] and returns its
// contents. It refuses any string holding an escape or a control
// character: those are encoding/json's to decode.
func scanPlainString(b []byte, i *int) ([]byte, bool) {
	if *i == len(b) || b[*i] != '"' {
		return nil, false
	}
	for j := *i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s := b[*i+1 : j]
			*i = j + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// scanUint reads the unsigned integer at b[*i] into *v if it is at most
// limit. It refuses a sign or a leading zero; a fraction or exponent
// fails the caller's delimiter check after the digits.
func scanUint(b []byte, i *int, limit uint64, v *uint64) bool {
	j := *i
	if j == len(b) || b[j] < '0' || b[j] > '9' {
		return false
	}
	var n uint64
	for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		d := uint64(b[j] - '0')
		if n > (limit-d)/10 {
			return false
		}
		n = n*10 + d
	}
	if b[*i] == '0' && j-*i > 1 {
		return false
	}
	*i, *v = j, n
	return true
}

// scanBool reads the literal true or false at b[*i] into *v.
func scanBool(b []byte, i *int, v *bool) bool {
	switch {
	case bytes.HasPrefix(b[*i:], []byte("true")):
		*i, *v = *i+4, true
	case bytes.HasPrefix(b[*i:], []byte("false")):
		*i, *v = *i+5, false
	default:
		return false
	}
	return true
}

// DecodeNDJSON parses every newline-terminated event in data, returning
// the events and the unterminated tail (the partial last line of a
// chunked upload — the caller stashes it and prepends it to the next
// chunk). Blank lines are skipped; decoding stops at the first bad
// line, or at a line (the tail included) longer than MaxNDJSONLine.
// The batch is sized from the newline count up front, so a chunk of
// canonical lines costs one allocation.
func DecodeNDJSON(data []byte) ([]trace.Event, []byte, error) {
	var evs []trace.Event
	if n := min(bytes.Count(data, []byte{'\n'}), len(data)/minNDJSONEvent+1); n > 0 {
		evs = make([]trace.Event, 0, n)
	}
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			if len(data) > MaxNDJSONLine {
				return evs, nil, ErrLineTooLong
			}
			return evs, data, nil
		}
		if nl > MaxNDJSONLine {
			return evs, nil, ErrLineTooLong
		}
		line := bytes.TrimSpace(data[:nl])
		data = data[nl+1:]
		if len(line) == 0 {
			continue
		}
		ev, err := parseNDJSONLine(line)
		if err != nil {
			return evs, nil, err
		}
		evs = append(evs, ev)
	}
}

// MarshalNDJSON renders one event as an NDJSON line (with trailing
// newline) — the client-side encoder used by examples and tests.
func MarshalNDJSON(ev trace.Event) ([]byte, error) {
	if int(ev.Kind) <= 0 || int(ev.Kind) >= len(kindNames) {
		return nil, fmt.Errorf("session: unknown event kind %d", ev.Kind)
	}
	w := wireEvent{Kind: kindNames[ev.Kind]}
	switch ev.Kind {
	case trace.EvFetch:
		w.Tag, w.PC, w.History, w.MDC = ev.Tag, ev.PC, ev.History, ev.MDC
		w.Conditional = ev.Conditional()
	case trace.EvResolve, trace.EvSquash:
		w.Tag = ev.Tag
	case trace.EvRetire:
		w.PC, w.History, w.MDC = ev.PC, ev.History, ev.MDC
		w.Conditional, w.Correct = ev.Conditional(), ev.Correct()
	case trace.EvCycle:
		w.Cycle = ev.PC
	}
	b, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// IngestNDJSON parses and applies a complete NDJSON document — the
// convenience entry point for direct (non-server) use, where data is not
// chunked: a final line without a trailing newline is accepted.
func (s *Session) IngestNDJSON(data []byte) error {
	evs, rest, err := DecodeNDJSON(data)
	if err != nil {
		return err
	}
	if rest = bytes.TrimSpace(rest); len(rest) > 0 {
		ev, err := parseNDJSONLine(rest)
		if err != nil {
			return err
		}
		evs = append(evs, ev)
	}
	return s.ApplyAll(evs)
}
