package admission

// Durable admitter state. The crash-amnesty bug this closes: snapshot
// persistence (engine.SaveEngine) captured only the classifier, so a
// crash+resume silently emptied the quarantine — a held attacker walks
// free — and reset the IncrementalRONI token bucket to a full burst,
// refilling exactly the probe budget the attacker had exhausted. The
// admitters therefore expose versioned SaveState/LoadState
// (engine.AdmissionStatePersister), and engine.SaveGuarded rides their
// state as labeled sections of the same record as the classifier
// snapshots, so one save lands or fails as a whole.
//
// Each payload is self-versioned (leading uvarint); integrity and
// identification are the record's job (magic + CRC, see
// engine/persist.go and engine/guardedpersist.go). What is persisted:
//
//   - Quarantine: the monotone counters and every held candidate —
//     message (headers + body), label, reason, review count. Token
//     streams are NOT persisted: the resume that loads the state
//     re-tokenizes each held candidate once (Quarantine.Restream, with
//     the serving tokenizer of the shard it routes to), so a resumed
//     hold carries a stream like a live one, and no consumer ever sees
//     a nil stream.
//   - IncrementalRONI: the budget accounting (bucket level, credits,
//     counters) and every memo verdict, keyed by stream digest and
//     label, so a held copy of a probed payload is decided from the
//     memo after a restart as it would have been before. The
//     calibration pool is not persisted: a restart re-samples it from
//     the deployment's trusted store, and a Refresh clears the memo.
//   - Chain: one sub-section per link, in link order, empty for links
//     that have no durable state.
//
// Save captures held/landed state only: candidates a concurrent
// Review has detached, and probes in flight, are not included — save
// at a quiescent point (the serving daemon's admin save, a scenario
// checkpoint), not mid-review.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/mail"
)

// The admitters that persist state.
var (
	_ engine.AdmissionStatePersister = (*Quarantine)(nil)
	_ engine.AdmissionStatePersister = (*IncrementalRONI)(nil)
	_ engine.AdmissionStatePersister = (*Chain)(nil)
)

// Format versions, one per payload kind, each bumped independently.
const (
	quarantineStateVersion = 1
	roniStateVersion       = 1
	chainStateVersion      = 1
)

// stateWriter accumulates a state payload.
type stateWriter struct {
	buf bytes.Buffer
}

func (w *stateWriter) u64(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	w.buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func (w *stateWriter) f64(v float64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v))
	w.buf.Write(tmp[:])
}

func (w *stateWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *stateWriter) bool(v bool) {
	if v {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

// stateReader decodes a state payload with bounds checking; the first
// error sticks and every later read returns zero values, so decoders
// can read a whole record and check err once.
type stateReader struct {
	r   *bytes.Reader
	err error
}

func newStateReader(r io.Reader) (*stateReader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return &stateReader{r: bytes.NewReader(data)}, nil
}

func (r *stateReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("admission: state payload: %s", what)
	}
}

func (r *stateReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(what)
		return 0
	}
	return v
}

func (r *stateReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	var tmp [8]byte
	if _, err := io.ReadFull(r.r, tmp[:]); err != nil {
		r.fail(what)
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(tmp[:]))
}

func (r *stateReader) str(what string) string {
	n := r.u64(what + " length")
	if r.err != nil {
		return ""
	}
	if n > uint64(r.r.Len()) {
		r.fail(what + " truncated")
		return ""
	}
	b := make([]byte, n)
	io.ReadFull(r.r, b)
	return string(b)
}

func (r *stateReader) bool(what string) bool {
	if r.err != nil {
		return false
	}
	b, err := r.r.ReadByte()
	if err != nil || b > 1 {
		r.fail(what)
		return false
	}
	return b == 1
}

// done checks the payload was consumed exactly — trailing bytes are
// corruption, not padding.
func (r *stateReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.r.Len() != 0 {
		return fmt.Errorf("admission: state payload: %d trailing bytes", r.r.Len())
	}
	return nil
}

// writeMessage serializes one mail message as explicit header
// name/value pairs plus the body — an exact field-level round trip
// that does not depend on the RFC-822 renderer and parser agreeing on
// every byte.
func (w *stateWriter) writeMessage(m *mail.Message) {
	w.u64(uint64(len(m.Header)))
	for _, f := range m.Header {
		w.str(f.Name)
		w.str(f.Value)
	}
	w.str(m.Body)
}

func (r *stateReader) readMessage() *mail.Message {
	nf := r.u64("header field count")
	if r.err != nil {
		return nil
	}
	if nf > uint64(r.r.Len()) { // each field costs >= 1 byte
		r.fail("header field count truncated")
		return nil
	}
	m := &mail.Message{}
	if nf > 0 {
		m.Header = make(mail.Header, 0, nf)
	}
	for i := uint64(0); i < nf; i++ {
		name := r.str("header name")
		value := r.str("header value")
		m.Header = append(m.Header, mail.Field{Name: name, Value: value})
	}
	m.Body = r.str("body")
	if r.err != nil {
		return nil
	}
	return m
}

// SaveState serializes the buffer — counters and every held candidate
// in arrival order (engine.AdmissionStatePersister).
func (q *Quarantine) SaveState(w io.Writer) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	var sw stateWriter
	sw.u64(quarantineStateVersion)
	sw.u64(q.totalHeld)
	sw.u64(q.released)
	sw.u64(q.dropped)
	sw.u64(q.expired)
	sw.u64(q.overflow)
	sw.u64(uint64(len(q.held)))
	for _, h := range q.held {
		sw.writeMessage(h.Msg)
		sw.bool(h.Spam)
		sw.str(h.Reason)
		sw.u64(uint64(h.Reviews))
	}
	_, err := w.Write(sw.buf.Bytes())
	return err
}

// LoadState replaces the buffer's contents and counters with a
// previously saved state. Held candidates come back without their
// token streams (see the package-persistence comment above): the
// resume that loads them calls Restream before anything reviews them.
// Capacity is the live configuration's:
// state saved under a larger capacity loads intact even if it now
// exceeds the bound — the overflow policy applies to new holds, not
// to survivors.
func (q *Quarantine) LoadState(r io.Reader) error {
	sr, err := newStateReader(r)
	if err != nil {
		return err
	}
	if v := sr.u64("quarantine state version"); sr.err == nil && v != quarantineStateVersion {
		return fmt.Errorf("admission: quarantine state version %d, want %d", v, quarantineStateVersion)
	}
	totalHeld := sr.u64("held counter")
	released := sr.u64("released counter")
	dropped := sr.u64("dropped counter")
	expired := sr.u64("expired counter")
	overflow := sr.u64("overflow counter")
	n := sr.u64("held count")
	if sr.err == nil && n > uint64(sr.r.Len()) { // each entry costs >= 1 byte
		sr.fail("held count truncated")
	}
	var held []HeldMessage
	loadedAt := time.Now()
	for i := uint64(0); sr.err == nil && i < n; i++ {
		m := sr.readMessage()
		spam := sr.bool("held label")
		reason := sr.str("held reason")
		reviews := sr.u64("held reviews")
		held = append(held, HeldMessage{Msg: m, Spam: spam, Reason: reason, Reviews: int(reviews), At: loadedAt})
	}
	if err := sr.done(); err != nil {
		return fmt.Errorf("quarantine: %w", err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.held = held
	q.totalHeld = totalHeld
	q.released = released
	q.dropped = dropped
	q.expired = expired
	q.overflow = overflow
	return nil
}

// SaveState serializes the budget accounting and the digest-keyed
// memo (engine.AdmissionStatePersister).
func (a *IncrementalRONI) SaveState(w io.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sw stateWriter
	sw.u64(roniStateVersion)
	sw.u64(a.arrivals)
	sw.u64(a.probes)
	sw.u64(a.memoHits)
	sw.u64(a.deferred)
	sw.u64(a.refreshes)
	sw.f64(a.credits)
	sw.f64(a.bucket)
	keys := make([]admitKey, 0, len(a.memo))
	for k := range a.memo {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].digest != keys[j].digest {
			return keys[i].digest < keys[j].digest
		}
		return !keys[i].spam && keys[j].spam
	})
	sw.u64(uint64(len(keys)))
	for _, k := range keys {
		d := a.memo[k]
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], k.digest)
		sw.buf.Write(tmp[:])
		sw.bool(k.spam)
		sw.u64(uint64(d.Verdict))
		sw.str(d.Reason)
	}
	_, err := w.Write(sw.buf.Bytes())
	return err
}

// LoadState replaces the budget accounting and memo with a previously
// saved state — the probe budget an attacker had drained stays
// drained across the restart. The calibration pool is untouched;
// Refresh it from the trusted store as usual at the next swap (which
// clears the memo, exactly as it does for live-probed verdicts).
func (a *IncrementalRONI) LoadState(r io.Reader) error {
	sr, err := newStateReader(r)
	if err != nil {
		return err
	}
	if v := sr.u64("roni state version"); sr.err == nil && v != roniStateVersion {
		return fmt.Errorf("admission: roni state version %d, want %d", v, roniStateVersion)
	}
	arrivals := sr.u64("arrivals")
	probes := sr.u64("probes")
	memoHits := sr.u64("memo hits")
	deferred := sr.u64("deferred")
	refreshes := sr.u64("refreshes")
	credits := sr.f64("credits")
	bucket := sr.f64("bucket")
	n := sr.u64("memo count")
	if sr.err == nil && n > uint64(sr.r.Len())/10 { // each entry costs >= 10 bytes
		sr.fail("memo count truncated")
	}
	memo := make(map[admitKey]Decision, n)
	for i := uint64(0); sr.err == nil && i < n; i++ {
		var tmp [8]byte
		if _, err := io.ReadFull(sr.r, tmp[:]); err != nil {
			sr.fail("memo digest")
			break
		}
		digest := binary.BigEndian.Uint64(tmp[:])
		spam := sr.bool("memo label")
		verdict := sr.u64("memo verdict")
		reason := sr.str("memo reason")
		if sr.err == nil && verdict > uint64(Rejected) {
			sr.fail(fmt.Sprintf("memo verdict %d", verdict))
		}
		memo[admitKey{digest: digest, spam: spam}] = Decision{Verdict: Verdict(verdict), Reason: reason}
	}
	if err := sr.done(); err != nil {
		return fmt.Errorf("roni: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.arrivals = arrivals
	a.probes = probes
	a.memoHits = memoHits
	a.deferred = deferred
	a.refreshes = refreshes
	a.credits = credits
	a.bucket = bucket
	a.memo = memo
	return nil
}

// SaveState serializes the chain as one sub-payload per link, in link
// order; links without durable state write an empty sub-payload
// (engine.AdmissionStatePersister).
func (c *Chain) SaveState(w io.Writer) error {
	var sw stateWriter
	sw.u64(chainStateVersion)
	sw.u64(uint64(len(c.links)))
	for _, link := range c.links {
		p, ok := link.(engine.AdmissionStatePersister)
		if !ok {
			sw.str("")
			continue
		}
		var sub bytes.Buffer
		if err := p.SaveState(&sub); err != nil {
			return fmt.Errorf("admission: chain link %s: %w", link.Name(), err)
		}
		sw.str(sub.String())
	}
	_, err := w.Write(sw.buf.Bytes())
	return err
}

// LoadState restores each link from its sub-payload. The live chain
// must be shaped like the one that saved: same link count, and every
// link whose slot holds state must be able to load it — dropping a
// link's state silently would re-open the amnesty this format closes.
func (c *Chain) LoadState(r io.Reader) error {
	sr, err := newStateReader(r)
	if err != nil {
		return err
	}
	if v := sr.u64("chain state version"); sr.err == nil && v != chainStateVersion {
		return fmt.Errorf("admission: chain state version %d, want %d", v, chainStateVersion)
	}
	n := sr.u64("chain link count")
	if sr.err == nil && n != uint64(len(c.links)) {
		return fmt.Errorf("admission: chain state has %d links, chain has %d", n, len(c.links))
	}
	subs := make([]string, 0, len(c.links))
	for i := uint64(0); sr.err == nil && i < n; i++ {
		subs = append(subs, sr.str("chain link payload"))
	}
	if err := sr.done(); err != nil {
		return fmt.Errorf("chain: %w", err)
	}
	for i, sub := range subs {
		if sub == "" {
			continue
		}
		p, ok := c.links[i].(engine.AdmissionStatePersister)
		if !ok {
			return fmt.Errorf("admission: chain link %d (%s) cannot load persisted state", i, c.links[i].Name())
		}
		if err := p.LoadState(bytes.NewReader([]byte(sub))); err != nil {
			return fmt.Errorf("admission: chain link %d (%s): %w", i, c.links[i].Name(), err)
		}
	}
	return nil
}
