package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// envelope is the JSONL wire form: a kind discriminator, a wall-clock stamp
// applied at write time, and the event payload.
type envelope struct {
	Kind Kind            `json:"kind"`
	Time int64           `json:"time_unix_ns"`
	Ev   json.RawMessage `json:"event"`
}

// JSONLSink writes one JSON object per event to an io.Writer. It is safe
// for concurrent use. Output is buffered; call Flush (or Close) before
// reading the destination.
type JSONLSink struct {
	mu   sync.Mutex
	w    *bufio.Writer
	dest io.Writer // unbuffered destination, for Close's durability sync
	err  error
}

// NewJSONLSink wraps w in a buffered JSONL event writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w), dest: w}
}

// Emit serializes the event as one JSONL line. The first write error is
// retained and reported by Flush/Close; later emits become no-ops.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	payload, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	line, err := json.Marshal(envelope{Kind: e.EventKind(), Time: time.Now().UnixNano(), Ev: payload})
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Flush drains the buffer and returns the first error seen so far.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close flushes the buffer and, when the destination supports it (an
// os.File does), syncs it to stable storage: a trace file is fully on disk
// once Close returns, so an abrupt exit right after cannot lose buffered
// tail events. The sink does not own the underlying writer — Close never
// closes it.
func (s *JSONLSink) Close() error {
	err := s.Flush()
	if syncer, ok := s.dest.(interface{ Sync() error }); ok {
		if serr := syncer.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// Decode parses one JSONL line back into its typed event and timestamp.
func Decode(line []byte) (Event, time.Time, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, time.Time{}, fmt.Errorf("obs: bad envelope: %w", err)
	}
	ev, err := decodeKind(env.Kind, env.Ev)
	if err != nil {
		return nil, time.Time{}, err
	}
	return ev, time.Unix(0, env.Time), nil
}

// dec is the generic payload decoder one kindDecoders entry instantiates
// per concrete event type.
func dec[E Event](raw json.RawMessage) (Event, error) {
	var e E
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, err
	}
	return e, nil
}

// kindDecoders is the single registry tying every Kind to its concrete
// event type. Decode, Kinds and Prototype all derive from it, and the
// exhaustiveness test (TestEventKindsExhaustive) fails when a Kind constant
// is declared without an entry here — adding an event kind therefore cannot
// silently produce undecodable traces.
var kindDecoders = map[Kind]func(json.RawMessage) (Event, error){
	KindContextRegistered:    dec[ContextRegistered],
	KindDuplicateContextName: dec[DuplicateContextName],
	KindRoundStarted:         dec[RoundStarted],
	KindRoundCompleted:       dec[RoundCompleted],
	KindContextAnalyzed:      dec[ContextAnalyzed],
	KindWindowClosed:         dec[WindowClosed],
	KindTransition:           dec[Transition],
	KindCooldownEntered:      dec[CooldownEntered],
	KindConfigClamped:        dec[ConfigClamped],
	KindEngineClosed:         dec[EngineClosed],
	KindModelsSwapped:        dec[ModelsSwapped],
	KindModelMissing:         dec[ModelMissing],
	KindBenchmarkProgress:    dec[BenchmarkProgress],
	KindCheckCompleted:       dec[CheckCompleted],
	KindCheckDivergence:      dec[CheckDivergence],
	KindWarmStart:            dec[WarmStart],
	KindCalibrationStarted:   dec[CalibrationStarted],
	KindCalibrationCompleted: dec[CalibrationCompleted],
	KindCalibrationDrift:     dec[CalibrationDrift],
	KindStoreSaved:           dec[StoreSaved],
	KindStoreLoaded:          dec[StoreLoaded],
	KindStoreRejected:        dec[StoreRejected],
	KindSwitchSuppressed:     dec[SwitchSuppressed],
	KindSearchStarted:        dec[SearchStarted],
	KindSearchFront:          dec[SearchFront],
	KindPatchEmitted:         dec[PatchEmitted],
}

// Kinds returns every registered event kind, sorted.
func Kinds() []Kind {
	out := make([]Kind, 0, len(kindDecoders))
	for k := range kindDecoders {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Prototype returns the zero event value registered for kind (ok=false for
// unknown kinds) — the hook exhaustiveness tests use to exercise every
// event type without naming each one.
func Prototype(kind Kind) (Event, bool) {
	decode, ok := kindDecoders[kind]
	if !ok {
		return nil, false
	}
	ev, err := decode(json.RawMessage("{}"))
	if err != nil {
		return nil, false
	}
	return ev, true
}

func decodeKind(kind Kind, raw json.RawMessage) (Event, error) {
	decode, ok := kindDecoders[kind]
	if !ok {
		return nil, fmt.Errorf("obs: unknown event kind %q", kind)
	}
	ev, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("obs: bad %s payload: %w", kind, err)
	}
	return ev, nil
}

// ReadAll decodes every event of a JSONL stream in order.
func ReadAll(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var out []Event
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		ev, _, err := Decode(sc.Bytes())
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}
