package admission

// Durable admitter state. The crash-amnesty bug this closes: snapshot
// persistence (engine.SaveEngine) captured only the classifier, so a
// crash+resume silently emptied the quarantine — a held attacker walks
// free — and reset the IncrementalRONI token bucket to a full burst,
// refilling exactly the probe budget the attacker had exhausted. The
// admitters are therefore engine.Persistable, like the classifiers
// (versioned Save/Load), and engine.SaveGuarded rides their state as
// labeled sections of the same record as the classifier snapshots, so
// one save lands or fails as a whole.
//
// Each payload is self-versioned (leading uvarint) and written and read
// through internal/binfmt, the one codec under every saved format; a
// payload that does not decode leaves its receiver unchanged.
// Integrity and identification are the record's job (magic + CRC, see
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
//     counters; the floats must be finite and not negative) and every
//     memo verdict, keyed by stream digest and label, so a held copy of
//     a probed payload is decided from the memo after a restart as it
//     would have been before. The
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
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/binfmt"
	"repro/internal/engine"
	"repro/internal/mail"
)

// The admitters that persist state.
var (
	_ engine.Persistable = (*Quarantine)(nil)
	_ engine.Persistable = (*IncrementalRONI)(nil)
	_ engine.Persistable = (*Chain)(nil)
)

// Format versions, one per payload kind, each bumped independently.
const (
	quarantineStateVersion = 1
	roniStateVersion       = 1
	chainStateVersion      = 1
)

// writeState writes one state payload: its version, then the fields
// body appends.
func writeState(w io.Writer, version uint64, body func(*binfmt.Writer)) error {
	bw := binfmt.NewWriter("", 0)
	bw.Uvarint(version)
	body(bw)
	_, err := w.Write(bw.Data())
	return err
}

// readState reads a whole state payload of the named kind and checks
// its leading version; the returned Reader is at the first field.
func readState(r io.Reader, kind string, version uint64) (*binfmt.Reader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	br := binfmt.NewReader(data, "admission: "+kind+" state")
	switch v := br.Uvarint("version"); {
	case br.Err() != nil:
		return nil, br.Err()
	case v != version:
		return nil, fmt.Errorf("admission: %s state version %d, want %d", kind, v, version)
	}
	return br, nil
}

// writeMessage serializes one mail message as explicit header
// name/value pairs plus the body — an exact field-level round trip
// that does not depend on the RFC-822 renderer and parser agreeing on
// every byte.
func writeMessage(bw *binfmt.Writer, m *mail.Message) {
	bw.Uvarint(uint64(len(m.Header)))
	for _, f := range m.Header {
		bw.String(f.Name)
		bw.String(f.Value)
	}
	bw.String(m.Body)
}

func readMessage(br *binfmt.Reader) *mail.Message {
	m := &mail.Message{}
	if nf := br.Count("header field count", 1); nf > 0 { // each field costs >= 1 byte
		m.Header = make(mail.Header, 0, nf)
		for range nf {
			name := br.String("header name")
			value := br.String("header value")
			m.Header = append(m.Header, mail.Field{Name: name, Value: value})
		}
	}
	m.Body = br.String("body")
	return m
}

// Save serializes the buffer — counters and every held candidate in
// arrival order (engine.Persistable).
func (q *Quarantine) Save(w io.Writer) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return writeState(w, quarantineStateVersion, func(bw *binfmt.Writer) {
		bw.Uvarint(q.totalHeld)
		bw.Uvarint(q.released)
		bw.Uvarint(q.dropped)
		bw.Uvarint(q.expired)
		bw.Uvarint(q.overflow)
		bw.Uvarint(uint64(len(q.held)))
		for _, h := range q.held {
			writeMessage(bw, h.Msg)
			bw.Bool(h.Spam)
			bw.String(h.Reason)
			bw.Uvarint(uint64(h.Reviews))
		}
	})
}

// Load replaces the buffer's contents and counters with a previously
// saved state; on error the buffer is unchanged. Held candidates come
// back without their token streams (see the package-persistence
// comment above): the resume that loads them calls Restream before
// anything reviews them. Capacity is the live configuration's: state
// saved under a larger capacity loads intact even if it now exceeds
// the bound — the overflow policy applies to new holds, not to
// survivors. A review count that does not fit an int is corruption: it
// would turn negative, and that hold would never expire.
func (q *Quarantine) Load(r io.Reader) error {
	br, err := readState(r, "quarantine", quarantineStateVersion)
	if err != nil {
		return err
	}
	totalHeld := br.Uvarint("held counter")
	released := br.Uvarint("released counter")
	dropped := br.Uvarint("dropped counter")
	expired := br.Uvarint("expired counter")
	overflow := br.Uvarint("overflow counter")
	n := br.Count("held count", 1) // each entry costs >= 1 byte
	var held []HeldMessage
	loadedAt := time.Now()
	for range n {
		m := readMessage(br)
		spam := br.Bool("held label")
		reason := br.String("held reason")
		reviews := br.Uvarint("held reviews")
		if reviews > math.MaxInt {
			br.Fail("held reviews %d", reviews)
		}
		if br.Err() != nil {
			break
		}
		held = append(held, HeldMessage{Msg: m, Spam: spam, Reason: reason, Reviews: int(reviews), At: loadedAt})
	}
	if err := br.End(); err != nil {
		return err
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

// Save serializes the budget accounting and the digest-keyed memo
// (engine.Persistable).
func (a *IncrementalRONI) Save(w io.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
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
	return writeState(w, roniStateVersion, func(bw *binfmt.Writer) {
		bw.Uvarint(a.arrivals)
		bw.Uvarint(a.probes)
		bw.Uvarint(a.memoHits)
		bw.Uvarint(a.deferred)
		bw.Uvarint(a.refreshes)
		bw.Float64(a.credits)
		bw.Float64(a.bucket)
		bw.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			d := a.memo[k]
			bw.Uint64(k.digest)
			bw.Bool(k.spam)
			bw.Uvarint(uint64(d.Verdict))
			bw.String(d.Reason)
		}
	})
}

// Load replaces the budget accounting and memo with a previously saved
// state, or leaves them unchanged on error — the probe budget an
// attacker had drained stays drained across the restart. A budget the
// admitter could not honour is corruption: credits or a bucket that is
// negative or not finite (binfmt rejects NaN and the infinities) would
// let probes run past Burst + CreditsGranted. The calibration pool is
// untouched, and the memo stays until a Refresh clears it: the online
// simulator refreshes the pool at every publish, the serving daemon
// does not yet.
func (a *IncrementalRONI) Load(r io.Reader) error {
	br, err := readState(r, "roni", roniStateVersion)
	if err != nil {
		return err
	}
	arrivals := br.Uvarint("arrivals")
	probes := br.Uvarint("probes")
	memoHits := br.Uvarint("memo hits")
	deferred := br.Uvarint("deferred")
	refreshes := br.Uvarint("refreshes")
	credits := br.Float64("credits")
	bucket := br.Float64("bucket")
	if credits < 0 || bucket < 0 {
		br.Fail("negative budget (credits %v, bucket %v)", credits, bucket)
	}
	n := br.Count("memo count", 10) // each entry costs >= 10 bytes
	memo := make(map[admitKey]Decision, n)
	for range n {
		digest := br.Uint64("memo digest")
		spam := br.Bool("memo label")
		verdict := br.Uvarint("memo verdict")
		reason := br.String("memo reason")
		if verdict > uint64(Rejected) {
			br.Fail("memo verdict %d", verdict)
		}
		memo[admitKey{digest: digest, spam: spam}] = Decision{Verdict: Verdict(verdict), Reason: reason}
	}
	if err := br.End(); err != nil {
		return err
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

// Save serializes the chain as one sub-payload per link, in link
// order; links that are not Persistable write an empty sub-payload
// (engine.Persistable).
func (c *Chain) Save(w io.Writer) error {
	subs := make([][]byte, len(c.links))
	for i, link := range c.links {
		p, ok := link.(engine.Persistable)
		if !ok {
			continue
		}
		var sub bytes.Buffer
		if err := p.Save(&sub); err != nil {
			return fmt.Errorf("admission: chain link %s: %w", link.Name(), err)
		}
		subs[i] = sub.Bytes()
	}
	return writeState(w, chainStateVersion, func(bw *binfmt.Writer) {
		bw.Uvarint(uint64(len(subs)))
		for _, sub := range subs {
			bw.Bytes(sub)
		}
	})
}

// Load restores each link from its sub-payload. The live chain must be
// shaped like the one that saved: same link count, and every link
// whose slot holds state must be able to load it — dropping a link's
// state silently would re-open the amnesty this format closes. On any
// error no link changes: each link's own state is saved before it
// loads, and a link whose sub-payload fails to load puts the links
// before it back.
func (c *Chain) Load(r io.Reader) error {
	br, err := readState(r, "chain", chainStateVersion)
	if err != nil {
		return err
	}
	if n := br.Uvarint("link count"); br.Err() == nil && n != uint64(len(c.links)) {
		return fmt.Errorf("admission: chain state has %d links, chain has %d", n, len(c.links))
	}
	subs := make([][]byte, len(c.links))
	for i := range subs {
		subs[i] = br.Bytes("link payload")
	}
	if err := br.End(); err != nil {
		return err
	}
	for i, sub := range subs {
		if _, ok := c.links[i].(engine.Persistable); len(sub) > 0 && !ok {
			return fmt.Errorf("admission: chain link %d (%s) cannot load persisted state", i, c.links[i].Name())
		}
	}
	saved := make([][]byte, len(subs))
	for i, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		p := c.links[i].(engine.Persistable)
		var before bytes.Buffer
		err := p.Save(&before)
		if err == nil {
			saved[i] = before.Bytes()
			err = p.Load(bytes.NewReader(sub))
		}
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				if saved[j] != nil {
					err = errors.Join(err, c.links[j].(engine.Persistable).Load(bytes.NewReader(saved[j])))
				}
			}
			return fmt.Errorf("admission: chain link %d (%s): %w", i, c.links[i].Name(), err)
		}
	}
	return nil
}
