package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	blindbox "repro"
	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/middlebox"
	"repro/internal/transport"
)

// writeSize is the application write size of the streaming workloads: one
// TLS-sized data record per write.
const writeSize = 16 << 10

// size scales a workload's inputs; the smoke test runs every workload at
// tinySize.
type size struct {
	bulkRound    int // bytes uploaded per bulk request
	replayRound  int // plaintext bytes per mb_replay request
	sessionBytes int // echo payload per session
	messageBytes int // small_requests message size
	messages     int // distinct small_requests messages
}

var (
	fullSize = size{bulkRound: 512 << 10, replayRound: 2 << 20, sessionBytes: 4 << 10, messageBytes: 512, messages: 64}
	tinySize = size{bulkRound: 64 << 10, replayRound: 128 << 10, sessionBytes: 1 << 10, messageBytes: 256, messages: 8}
)

// corruption plants a wrong expectation, so the smoke test can show that
// the output checks fail the run.
type corruption int

const (
	corruptNone   corruption = iota
	corruptDigest            // expect a wrong digest or echo
	corruptHit               // drop one planted hit from the ground truth
)

// window accumulates what the closed-loop clients observe during the timed
// window. A request is the workload's unit of closed-loop work.
type window struct {
	until time.Time
	limit int64 // requests to start in all; 0 = until the deadline

	mu        sync.Mutex
	started   int64
	latencies []time.Duration
	dials     []time.Duration
	attempted int64
	failed    int64
	bytes     int64 // client payload bytes of completed requests
	errs      []error
}

// more reports whether a client may start another request.
func (w *window) more() bool {
	if !time.Now().Before(w.until) {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.limit > 0 && w.started >= w.limit {
		return false
	}
	w.started++
	return true
}

func (w *window) done(lat time.Duration, payload int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	w.latencies = append(w.latencies, lat)
	w.bytes += int64(payload)
}

func (w *window) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	w.failed++
	if len(w.errs) < 4 {
		w.errs = append(w.errs, err)
	}
}

func (w *window) dial(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dials = append(w.dials, d)
}

// workload is one traffic mix. Its inputs are generated from the seed
// before any timing starts.
type workload interface {
	// serve handles one server-side connection of the harness.
	serve(h *harness, raw net.Conn)
	// open performs the workload's first handshake on a fresh harness.
	open(h *harness) error
	// ready finishes untimed preparation after set-up.
	ready(h *harness) error
	// drive runs closed-loop client c while w has more requests.
	drive(h *harness, c int, w *window)
	// verify compares the middlebox's alerts with the ground truth.
	verify(h *harness, w *window) error
	// shutdown closes the workload's client connections.
	shutdown()
	// stream is the client's plaintext in write order, and hits the
	// keyword occurrences planted in it, for the traced per-layer pass.
	stream() [][]byte
	hits() int
}

// spec describes a workload: its name, how many closed-loop clients or
// streams it runs, and how to build it.
type spec struct {
	name        string
	concurrency int
	// procs, when set, is the GOMAXPROCS the workload runs at. The
	// per-request workloads run every party on one P: their pipelines hand
	// work across goroutines many times per request, and on a shared
	// 2-vCPU host, spreading those handoffs over both vCPUs made a run's
	// rates depend on when the host ran the second vCPU more than on the
	// program.
	procs int
	build func(fx *fixture, seed int64, sz size, bad corruption) (workload, error)
	// echo: the server sends the request text back, so every data-path
	// layer runs in both directions.
	echo bool
	// perSession: every request is a fresh session, so it pays session
	// setup and starts a fresh token stream.
	perSession bool
	// preEncrypted: the client stream is encrypted before the window and
	// the server is a raw record sink, so endpoints do no per-byte work.
	preEncrypted bool
}

var specs = []spec{
	{name: "bulk", concurrency: 1, build: newBulk},
	{name: "sessions", concurrency: 1, build: newSessions, echo: true, perSession: true},
	{name: "small_requests", concurrency: 1, procs: 1, build: newSmall, echo: true},
	{name: "mb_replay", concurrency: 1, procs: 1, build: newReplay, preEncrypted: true},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// plantedText synthesizes a text with planted hits, checks the plaintext
// baseline against the plants, and applies a hit corruption.
func plantedText(fx *fixture, seed int64, n, hits int, bad corruption) ([]byte, []hit, error) {
	text, planted := fx.text(seed, n, hits)
	if err := fx.checkBaseline(text, planted); err != nil {
		return nil, nil, err
	}
	if bad == corruptHit && len(planted) > 0 {
		planted = planted[1:]
	}
	return text, planted, nil
}

// chunks splits p into writes of at most writeSize bytes.
func chunks(p []byte) [][]byte {
	var out [][]byte
	for len(p) > 0 {
		n := min(len(p), writeSize)
		out = append(out, p[:n])
		p = p[n:]
	}
	return out
}

// shifted returns hits moved by off, each counted n times.
func shifted(dst map[hit]int, hs []hit, off, n int) {
	for _, h := range hs {
		h.Offset += off
		dst[h] += n
	}
}

// expectSessions checks the middlebox's alerts for n sessions that all
// carried the same traffic: exactly n connections raised alerts, and each
// one's flows equal want per direction (a direction absent from want must
// stay silent). norm, if set, folds a flow's alerts before comparing.
// Connection IDs are not assumed: a retried handshake would shift them.
func expectSessions(h *harness, n int, want map[middlebox.Direction]flowAlerts, norm func(flowAlerts) flowAlerts) error {
	byConn := map[uint64]map[middlebox.Direction]flowAlerts{}
	for k, fa := range h.alerts.snapshot() {
		if byConn[k.Conn] == nil {
			byConn[k.Conn] = map[middlebox.Direction]flowAlerts{}
		}
		byConn[k.Conn][k.Dir] = fa
	}
	if len(byConn) != n {
		return fmt.Errorf("%d connections raised alerts, want %d", len(byConn), n)
	}
	silent := flowAlerts{hits: map[hit]int{}, rules: map[int]int{}}
	for id, dirs := range byConn {
		for _, dir := range []middlebox.Direction{middlebox.ClientToServer, middlebox.ServerToClient} {
			got, ok := dirs[dir]
			if !ok {
				got = silent
			}
			if norm != nil {
				got = norm(got)
			}
			exp, ok := want[dir]
			if !ok {
				exp = silent
			}
			if err := compareFlow(flowKey{id, dir}, got, exp.hits, exp.rules); err != nil {
				return err
			}
		}
	}
	return nil
}

// bulk: one persistent session uploads the same seeded text round after
// round in 16 KiB writes; the server validates every byte (the receiver's
// token check of §3.4 runs inside Conn.Read) and answers each round with
// its SHA-256.
type bulk struct {
	text    []byte
	planted []hit
	digest  [32]byte
	conn    *blindbox.Conn
	rounds  int
}

func newBulk(fx *fixture, seed int64, sz size, bad corruption) (workload, error) {
	text, planted, err := plantedText(fx, seed, sz.bulkRound, 16, bad)
	if err != nil {
		return nil, err
	}
	b := &bulk{text: text, planted: planted, digest: sha256.Sum256(text)}
	if bad == corruptDigest {
		b.digest[0] ^= 1
	}
	return b, nil
}

func (b *bulk) serve(h *harness, raw net.Conn) {
	conn, err := blindbox.Server(raw, h.cfg)
	if err != nil {
		return
	}
	defer conn.Close()
	for {
		sum := sha256.New()
		if _, err := io.CopyN(sum, conn, int64(len(b.text))); err != nil {
			return
		}
		if _, err := conn.WriteBinary(sum.Sum(nil)); err != nil {
			return
		}
	}
}

func (b *bulk) open(h *harness) error {
	conn, err := blindbox.Dial(h.addr(), h.cfg)
	b.conn, b.rounds = conn, 0
	return err
}

func (b *bulk) ready(*harness) error { return nil }

func (b *bulk) drive(h *harness, c int, w *window) {
	var got [32]byte
	for w.more() {
		t0 := time.Now()
		for _, p := range chunks(b.text) {
			if _, err := b.conn.Write(p); err != nil {
				w.fail(fmt.Errorf("bulk upload: %w", err))
				return
			}
		}
		if _, err := io.ReadFull(b.conn, got[:]); err != nil {
			w.fail(fmt.Errorf("bulk digest: %w", err))
			return
		}
		b.rounds++
		if got != b.digest {
			w.fail(errors.New("bulk: server digest differs from the uploaded text's"))
			continue
		}
		w.done(time.Since(t0), len(b.text))
	}
}

func (b *bulk) verify(h *harness, w *window) error {
	hits := map[hit]int{}
	for r := 0; r < b.rounds; r++ {
		shifted(hits, b.planted, r*len(b.text), 1)
	}
	return expectSessions(h, 1, map[middlebox.Direction]flowAlerts{
		middlebox.ClientToServer: {hits: hits, rules: ruleSIDs(b.planted)},
	}, nil)
}

func (b *bulk) shutdown() {
	if b.conn != nil {
		_ = b.conn.Close()
	}
}

func (b *bulk) stream() [][]byte { return chunks(b.text) }
func (b *bulk) hits() int        { return len(b.planted) }

// sessions: closed-loop fresh sessions, each a Dial (handshake and rule
// preparation) plus one echoed text and close. The first session's setup
// is almost all of its cost.
type sessions struct {
	payload []byte
	want    []byte
	planted []hit
}

func newSessions(fx *fixture, seed int64, sz size, bad corruption) (workload, error) {
	payload, planted, err := plantedText(fx, seed, sz.sessionBytes, 6, bad)
	if err != nil {
		return nil, err
	}
	s := &sessions{payload: payload, want: bytes.Clone(payload), planted: planted}
	if bad == corruptDigest {
		s.want[0] ^= 1
	}
	return s, nil
}

// serve echoes everything the client sends, as text.
func (s *sessions) serve(h *harness, raw net.Conn) {
	conn, err := blindbox.Server(raw, h.cfg)
	if err != nil {
		return
	}
	defer conn.Close()
	data, err := io.ReadAll(conn)
	if err != nil {
		return
	}
	if _, err := conn.Write(data); err != nil {
		return
	}
	_ = conn.CloseWrite()
}

// open runs the first session's handshake and closes it unused.
func (s *sessions) open(h *harness) error {
	conn, err := blindbox.Dial(h.addr(), h.cfg)
	if err != nil {
		return err
	}
	return conn.Close()
}

func (s *sessions) ready(*harness) error { return nil }

func (s *sessions) drive(h *harness, c int, w *window) {
	for w.more() {
		t0 := time.Now()
		conn, err := blindbox.Dial(h.addr(), h.cfg)
		if err != nil {
			w.fail(fmt.Errorf("session dial: %w", err))
			continue
		}
		w.dial(time.Since(t0))
		err = s.echo(conn)
		_ = conn.Close()
		if err != nil {
			w.fail(err)
			continue
		}
		w.done(time.Since(t0), len(s.payload))
	}
}

func (s *sessions) echo(conn *blindbox.Conn) error {
	if _, err := conn.Write(s.payload); err != nil {
		return fmt.Errorf("session write: %w", err)
	}
	if err := conn.CloseWrite(); err != nil {
		return fmt.Errorf("session close-write: %w", err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		return fmt.Errorf("session read: %w", err)
	}
	if !bytes.Equal(got, s.want) {
		return errors.New("sessions: echo differs from the payload sent")
	}
	return nil
}

// verify: the set-up handshake carries no data; every completed session
// echoed the same text, so both of its directions must report exactly the
// planted hits.
func (s *sessions) verify(h *harness, w *window) error {
	hits := map[hit]int{}
	shifted(hits, s.planted, 0, 1)
	fa := flowAlerts{hits: hits, rules: ruleSIDs(s.planted)}
	return expectSessions(h, len(w.latencies), map[middlebox.Direction]flowAlerts{
		middlebox.ClientToServer: fa, middlebox.ServerToClient: fa,
	}, nil)
}

func (s *sessions) shutdown() {}

func (s *sessions) stream() [][]byte { return [][]byte{s.payload} }
func (s *sessions) hits() int        { return len(s.planted) }

// small: one persistent session wrapped in a Mux; each closed-loop client
// owns one stream and echoes small text messages, one in eight holding a
// keyword. With several clients, offsets depend on how the streams
// interleave, so alerts are checked as counts per keyword.
type small struct {
	msgs    [][]byte
	want    [][]byte
	planted [][]hit
	mux     *blindbox.Mux
	sent    []int // per message index, guarded by mu
	mu      sync.Mutex
}

func newSmall(fx *fixture, seed int64, sz size, bad corruption) (workload, error) {
	s := &small{sent: make([]int, sz.messages)}
	for i := 0; i < sz.messages; i++ {
		hits := 0
		if i%8 == 0 {
			hits = 1
		}
		msg, planted, err := plantedText(fx, seed+int64(i)*7919, sz.messageBytes, hits, corruptNone)
		if err != nil {
			return nil, err
		}
		// Cycle the keyword so the message pool holds all three.
		if hits == 1 {
			k := (i / 8) % len(fx.keywords)
			copy(msg[planted[0].Offset:], fx.keywords[k])
			planted[0] = hit{SID: fx.refs[k].SID, Keyword: fx.refs[k].Keyword, Offset: planted[0].Offset}
			if err := fx.checkBaseline(msg, planted); err != nil {
				return nil, err
			}
		}
		s.msgs, s.planted = append(s.msgs, msg), append(s.planted, planted)
		s.want = append(s.want, bytes.Clone(msg))
	}
	switch bad {
	case corruptDigest:
		s.want[0][0] ^= 1
	case corruptHit:
		s.planted[0] = nil
	}
	return s, nil
}

func (s *small) serve(h *harness, raw net.Conn) {
	conn, err := blindbox.Server(raw, h.cfg)
	if err != nil {
		return
	}
	mux := blindbox.NewMux(conn, false)
	defer mux.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		st, err := mux.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(s.msgs[0]))
			for {
				if _, err := io.ReadFull(st, buf); err != nil {
					return
				}
				if _, err := st.Write(buf); err != nil {
					return
				}
			}
		}()
	}
}

func (s *small) open(h *harness) error {
	conn, err := blindbox.Dial(h.addr(), h.cfg)
	if err != nil {
		return err
	}
	s.mux = blindbox.NewMux(conn, true)
	clear(s.sent)
	return nil
}

func (s *small) ready(*harness) error { return nil }

func (s *small) drive(h *harness, c int, w *window) {
	st, err := s.mux.Open()
	if err != nil {
		w.fail(fmt.Errorf("open stream: %w", err))
		return
	}
	resp := make([]byte, len(s.msgs[0]))
	// Each client walks the message pool from its own starting point.
	for k := 0; w.more(); k++ {
		m := (c*len(s.msgs)/2 + k) % len(s.msgs)
		t0 := time.Now()
		if _, err := st.Write(s.msgs[m]); err != nil {
			w.fail(fmt.Errorf("stream write: %w", err))
			return
		}
		s.mu.Lock()
		s.sent[m]++
		s.mu.Unlock()
		if _, err := io.ReadFull(st, resp); err != nil {
			w.fail(fmt.Errorf("stream read: %w", err))
			return
		}
		if !bytes.Equal(resp, s.want[m]) {
			w.fail(errors.New("small_requests: echo differs from the message sent"))
			continue
		}
		w.done(time.Since(t0), len(resp))
	}
}

// verify compares keyword alert counts (offsets depend on stream
// interleaving) in both directions with the hits of every message sent.
func (s *small) verify(h *harness, w *window) error {
	want := map[hit]int{}
	var all []hit
	s.mu.Lock()
	for m, n := range s.sent {
		if n == 0 {
			continue
		}
		for _, p := range s.planted[m] {
			p.Offset = 0
			want[p] += n
			all = append(all, p)
		}
	}
	s.mu.Unlock()
	fa := flowAlerts{hits: want, rules: ruleSIDs(all)}
	counts := func(got flowAlerts) flowAlerts {
		folded := map[hit]int{}
		for hh, n := range got.hits {
			hh.Offset = 0
			folded[hh] += n
		}
		return flowAlerts{hits: folded, rules: got.rules}
	}
	return expectSessions(h, 1, map[middlebox.Direction]flowAlerts{
		middlebox.ClientToServer: fa, middlebox.ServerToClient: fa,
	}, counts)
}

func (s *small) shutdown() {
	if s.mux != nil {
		_ = s.mux.Close()
	}
}

func (s *small) stream() [][]byte { return s.msgs }

func (s *small) hits() int {
	n := 0
	for _, p := range s.planted {
		n += len(p)
	}
	return n
}

// replayCopies is how many times one mb_replay request writes the
// pre-encrypted round. Longer requests spread a host's scheduling hiccups
// over more work, which steadies the latency tail, without holding more
// pre-encrypted records in memory.
const replayCopies = 4

// replay: after one real handshake the client stream is pre-encrypted from
// the session keys outside the timed window, then written round after
// round onto the raw client socket; a raw record sink on the server leg
// counts the data records and acknowledges each request of replayCopies
// rounds. Only the middlebox's data path (read, unmarshal, scan, barrier,
// forward) does work per byte. Each round starts with a salt announcement
// that resets the middlebox's counters, so every round is detected afresh.
type replay struct {
	text     []byte
	planted  []hit
	raw      net.Conn
	conn     *blindbox.Conn
	round    []byte // encoded records of one round
	dataRecs int    // data records per request
	ack      [8]byte
	rounds   int
}

func newReplay(fx *fixture, seed int64, sz size, bad corruption) (workload, error) {
	text, planted, err := plantedText(fx, seed, sz.replayRound, 32, bad)
	if err != nil {
		return nil, err
	}
	r := &replay{text: text, planted: planted, dataRecs: replayCopies * len(chunks(text))}
	binary.BigEndian.PutUint64(r.ack[:], uint64(replayCopies*len(text)))
	if bad == corruptDigest {
		r.ack[7] ^= 1
	}
	return r, nil
}

// serve is the record sink: it completes the server handshake, then reads
// raw records and acknowledges every request with its plaintext byte count.
func (r *replay) serve(h *harness, raw net.Conn) {
	if _, err := blindbox.Server(raw, h.cfg); err != nil {
		return
	}
	recs, payload := 0, 0
	var ack [8]byte
	for {
		typ, body, err := transport.ReadRecord(raw)
		if err != nil {
			return
		}
		if typ != transport.RecData {
			continue
		}
		// A data record is the kind byte and the plaintext, sealed.
		payload += len(body) - 1 - 16
		if recs++; recs == r.dataRecs {
			binary.BigEndian.PutUint64(ack[:], uint64(payload))
			if err := transport.WriteRecord(raw, transport.RecData, ack[:]); err != nil {
				return
			}
			recs, payload = 0, 0
		}
	}
}

func (r *replay) open(h *harness) error {
	raw, err := net.Dial("tcp", h.addr())
	if err != nil {
		return err
	}
	conn, err := blindbox.Client(raw, h.cfg)
	if err != nil {
		_ = raw.Close()
		return err
	}
	r.raw, r.conn, r.rounds = raw, conn, 0
	return nil
}

// ready encodes one round of the client stream exactly as Conn.Write
// would: per 16 KiB chunk an optional salt record, a token record and a
// sealed data record.
func (r *replay) ready(h *harness) error {
	keys := r.conn.SessionKeys()
	cfg := h.cfg.Core
	pipe := core.NewSenderPipeline(keys, cfg)
	aead := bbcrypto.NewGCM(keys.KSSL)
	var buf bytes.Buffer
	var salt [8]byte
	binary.BigEndian.PutUint64(salt[:], cfg.Salt0)
	if err := transport.WriteRecord(&buf, transport.RecSalt, salt[:]); err != nil {
		return err
	}
	for seq, p := range chunks(r.text) {
		toks, reset := pipe.ProcessText(p)
		if reset != nil {
			binary.BigEndian.PutUint64(salt[:], reset.Salt0)
			if err := transport.WriteRecord(&buf, transport.RecSalt, salt[:]); err != nil {
				return err
			}
		}
		if len(toks) > 0 {
			if err := transport.WriteRecord(&buf, transport.RecTokens, transport.MarshalTokens(toks, false)); err != nil {
				return err
			}
		}
		nonce := make([]byte, 12)
		binary.BigEndian.PutUint64(nonce[4:], uint64(seq))
		ct := aead.Seal(nil, nonce, append([]byte{0}, p...), []byte{byte(transport.RecData)})
		if err := transport.WriteRecord(&buf, transport.RecData, ct); err != nil {
			return err
		}
	}
	r.round = buf.Bytes()
	return nil
}

func (r *replay) drive(h *harness, c int, w *window) {
	for w.more() {
		t0 := time.Now()
		for i := 0; i < replayCopies; i++ {
			if _, err := r.raw.Write(r.round); err != nil {
				w.fail(fmt.Errorf("replay write: %w", err))
				return
			}
		}
		typ, body, err := transport.ReadRecord(r.raw)
		if err != nil {
			w.fail(fmt.Errorf("replay ack: %w", err))
			return
		}
		r.rounds += replayCopies
		if typ != transport.RecData || !bytes.Equal(body, r.ack[:]) {
			w.fail(errors.New("mb_replay: sink acknowledged a different byte count"))
			continue
		}
		w.done(time.Since(t0), replayCopies*len(r.text))
	}
}

func (r *replay) verify(h *harness, w *window) error {
	hits := map[hit]int{}
	shifted(hits, r.planted, 0, r.rounds)
	return expectSessions(h, 1, map[middlebox.Direction]flowAlerts{
		middlebox.ClientToServer: {hits: hits, rules: ruleSIDs(r.planted)},
	}, nil)
}

func (r *replay) shutdown() {
	if r.raw != nil {
		_ = r.raw.Close()
	}
}

func (r *replay) stream() [][]byte { return chunks(r.text) }
func (r *replay) hits() int        { return len(r.planted) }
