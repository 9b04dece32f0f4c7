package main

import (
	"encoding/binary"
	"fmt"
	//lint:ignore weak-rand workload inputs must be reproducible from the --seed argument; nothing here is secret
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"

	blindbox "repro"
	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/middlebox"
	"repro/internal/rules"
	"repro/internal/transport"
)

// keywordLen is the tokenizer's token size. Every benchmark keyword is
// exactly one delimiter-mode fragment, so each costs one garbled rule
// circuit per endpoint at session setup.
const keywordLen = 8

// SIDs of the benchmark ruleset.
const (
	sidSingle = 1 // one keyword
	sidPair   = 2 // two keywords that must both occur (a Protocol II rule)
)

// hit is one keyword occurrence: the rule, which of its contents, and the
// stream offset of the keyword's first byte.
type hit struct {
	SID, Keyword, Offset int
}

func sortHits(hs []hit) {
	sort.Slice(hs, func(i, j int) bool {
		a, b := hs[i], hs[j]
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		if a.SID != b.SID {
			return a.SID < b.SID
		}
		return a.Keyword < b.Keyword
	})
}

// fixture is the seeded input all workloads share: three random keywords
// and the signed ruleset built from them. The rule generator's keys are
// random; the seed fixes only what the endpoints send.
type fixture struct {
	keywords [3][]byte
	// refs maps keyword i to its rule and content index.
	refs    [3]hit
	ruleset *rules.Ruleset
	rg      *rules.Generator
	signed  *rules.SignedRuleset
	ids     *baseline.IDS
}

func newFixture(seed int64) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	fx := &fixture{refs: [3]hit{{SID: sidSingle}, {SID: sidPair}, {SID: sidPair, Keyword: 1}}}
	for i := range fx.keywords {
		for fx.keywords[i] == nil {
			kw := randomKeyword(rng)
			if !slices.ContainsFunc(fx.keywords[:i], func(k []byte) bool { return string(k) == string(kw) }) {
				fx.keywords[i] = kw
			}
		}
	}
	text := fmt.Sprintf(
		"alert tcp any any -> any any (msg:\"bench single\"; content:\"%s\"; sid:%d;)\n"+
			"alert tcp any any -> any any (msg:\"bench pair\"; content:\"%s\"; content:\"%s\"; sid:%d;)\n",
		fx.keywords[0], sidSingle, fx.keywords[1], fx.keywords[2], sidPair)
	rs, err := rules.Parse("bbbench", text)
	if err != nil {
		return nil, err
	}
	rg, err := rules.NewGenerator("bbbench-rg")
	if err != nil {
		return nil, err
	}
	fx.ruleset, fx.rg, fx.signed, fx.ids = rs, rg, rg.Sign(rs), baseline.New(rs)
	return fx, nil
}

// randomKeyword draws an 8-byte keyword of letters and digits: no
// delimiter inside, and (with overwhelming probability) absent from the
// synthetic corpus vocabulary.
func randomKeyword(rng *rand.Rand) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	const alnum = letters + "0123456789"
	kw := make([]byte, keywordLen)
	kw[0] = letters[rng.Intn(len(letters))]
	for i := 1; i < keywordLen; i++ {
		kw[i] = alnum[rng.Intn(len(alnum))]
	}
	return kw
}

// text synthesizes n bytes of web-like text holding `hits` keyword
// occurrences at seeded offsets, one per equal slice of the text. Each
// keyword sits between two spaces, so delimiter tokenization anchors a
// token at its first byte. Keywords cycle, so any text with three or more
// hits fires both rules. The planted hits are returned in offset order.
func (fx *fixture) text(seed int64, n, hits int) ([]byte, []hit) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var opts []corpus.TextOption
	var planted []hit
	if hits > 0 {
		region := n / hits
		for i := 0; i < hits; i++ {
			k := i % len(fx.keywords)
			off := i*region + 1 + rng.Intn(region-keywordLen-2)
			span := append(append([]byte{' '}, fx.keywords[k]...), ' ')
			opts = append(opts, corpus.WithHit(off-1, span))
			h := fx.refs[k]
			h.Offset = off
			planted = append(planted, h)
		}
	}
	return corpus.SynthesizeTextSeeded(seed, n, opts...), planted
}

// ruleSIDs is the set of rules a stream holding the given keyword hits
// fires: the pair rule has no offset constraints, so it needs only both
// of its keywords somewhere in the stream.
func ruleSIDs(hs []hit) map[int]int {
	seen := map[hit]bool{}
	for _, h := range hs {
		seen[hit{SID: h.SID, Keyword: h.Keyword}] = true
	}
	out := map[int]int{}
	if seen[hit{SID: sidSingle}] {
		out[sidSingle] = 1
	}
	if seen[hit{SID: sidPair}] && seen[hit{SID: sidPair, Keyword: 1}] {
		out[sidPair] = 1
	}
	return out
}

// checkBaseline runs the plaintext Snort-like IDS over text and requires
// it to find exactly the planted hits and fire exactly the rules they
// imply: the ground truth and the plaintext reference must agree before
// the middlebox is compared with either.
func (fx *fixture) checkBaseline(text []byte, planted []hit) error {
	res := fx.ids.Inspect(text)
	var got []hit
	for ri, per := range res.KeywordOffsets {
		for ci, offs := range per {
			for _, o := range offs {
				got = append(got, hit{SID: fx.ruleset.Rules[ri].SID, Keyword: ci, Offset: o})
			}
		}
	}
	sortHits(got)
	want := slices.Clone(planted)
	sortHits(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("baseline IDS found %d keyword hits %v, ground truth plants %d %v", len(got), got, len(want), want)
	}
	gotRules := map[int]int{}
	for _, sid := range res.RuleSIDs {
		gotRules[sid]++
	}
	if !mapsEqual(gotRules, ruleSIDs(planted)) {
		return fmt.Errorf("baseline IDS fired rules %v, ground truth implies %v", gotRules, ruleSIDs(planted))
	}
	return nil
}

func mapsEqual[K comparable](a, b map[K]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// flowKey names one direction of one middlebox connection.
type flowKey struct {
	Conn uint64
	Dir  middlebox.Direction
}

// flowAlerts is what the middlebox reported on one flow: keyword hits
// with multiplicity, and rule matches per SID.
type flowAlerts struct {
	hits  map[hit]int
	rules map[int]int
}

// alertLog collects the middlebox's alerts; OnAlert may run on several
// detection goroutines at once.
type alertLog struct {
	mu    sync.Mutex
	flows map[flowKey]*flowAlerts
}

func newAlertLog() *alertLog { return &alertLog{flows: map[flowKey]*flowAlerts{}} }

func (l *alertLog) add(a blindbox.Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := flowKey{a.ConnID, a.Direction}
	fa := l.flows[k]
	if fa == nil {
		fa = &flowAlerts{hits: map[hit]int{}, rules: map[int]int{}}
		l.flows[k] = fa
	}
	switch a.Event.Kind {
	case blindbox.KeywordMatch:
		fa.hits[hit{SID: a.Event.Rule.SID, Keyword: a.Event.KeywordIndex, Offset: a.Event.Offset}]++
	case blindbox.RuleMatch:
		fa.rules[a.Event.Rule.SID]++
	}
}

// snapshot returns a copy of every flow's alerts.
func (l *alertLog) snapshot() map[flowKey]flowAlerts {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[flowKey]flowAlerts, len(l.flows))
	for k, fa := range l.flows {
		cp := flowAlerts{hits: make(map[hit]int, len(fa.hits)), rules: make(map[int]int, len(fa.rules))}
		for h, n := range fa.hits {
			cp.hits[h] = n
		}
		for s, n := range fa.rules {
			cp.rules[s] = n
		}
		out[k] = cp
	}
	return out
}

// compareFlow reports how a flow's alerts differ from the expectation.
func compareFlow(k flowKey, got flowAlerts, wantHits map[hit]int, wantRules map[int]int) error {
	if !mapsEqual(got.hits, wantHits) {
		missing, extra := 0, 0
		for h, n := range wantHits {
			if got.hits[h] < n {
				missing += n - got.hits[h]
			}
		}
		for h, n := range got.hits {
			if wantHits[h] < n {
				extra += n - wantHits[h]
			}
		}
		return fmt.Errorf("conn %d %s: middlebox keyword alerts differ from ground truth: %d missing, %d unexpected", k.Conn, k.Dir, missing, extra)
	}
	if !mapsEqual(got.rules, wantRules) {
		return fmt.Errorf("conn %d %s: middlebox rule alerts %v, ground truth implies %v", k.Conn, k.Dir, got.rules, wantRules)
	}
	return nil
}

// harness is one live deployment on loopback: a middlebox in front of a
// BlindBox server, both served by goroutines of this process. Tracing and
// metrics are off, as in a deployment that exports nothing.
type harness struct {
	mb     *blindbox.Middlebox
	mbLn   net.Listener
	srvLn  net.Listener
	cfg    blindbox.ConnConfig
	alerts *alertLog

	// counts, when set, tallies the records the server reads and writes.
	counts *wireCounts

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// newHarness builds the middlebox and starts the middlebox and server
// accept loops; serve handles each server-side connection.
func newHarness(fx *fixture, serve func(h *harness, raw net.Conn), count bool) (*harness, error) {
	h := &harness{
		alerts: newAlertLog(),
		conns:  map[net.Conn]struct{}{},
		cfg: blindbox.ConnConfig{
			Core: blindbox.DefaultConfig(),
			RG:   blindbox.RGMaterial{TagKey: fx.rg.TagKey()},
		},
	}
	if count {
		h.counts = newWireCounts()
	}
	mb, err := blindbox.NewMiddlebox(blindbox.MiddleboxConfig{
		Ruleset:     fx.signed,
		RGPublicKey: fx.rg.PublicKey(),
		OnAlert:     h.alerts.add,
	})
	if err != nil {
		return nil, err
	}
	h.mb = mb
	if h.srvLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = mb.Close()
		return nil, err
	}
	if h.mbLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = h.srvLn.Close()
		_ = mb.Close()
		return nil, err
	}
	h.wg.Add(2)
	go func() {
		defer h.wg.Done()
		_ = mb.Serve(h.mbLn, h.srvLn.Addr().String())
	}()
	go func() {
		defer h.wg.Done()
		for {
			raw, err := h.srvLn.Accept()
			if err != nil {
				return
			}
			h.mu.Lock()
			h.conns[raw] = struct{}{}
			h.mu.Unlock()
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				if h.counts != nil {
					serve(h, &countingConn{Conn: raw, wc: h.counts})
				} else {
					serve(h, raw)
				}
				h.mu.Lock()
				delete(h.conns, raw)
				h.mu.Unlock()
				_ = raw.Close()
			}()
		}
	}()
	return h, nil
}

// addr is where clients dial: the middlebox.
func (h *harness) addr() string { return h.mbLn.Addr().String() }

// close stops the deployment and waits for every goroutine it started.
// Clients must have closed their connections first; open server legs are
// severed so forwarding ends.
func (h *harness) close() error {
	_ = h.mbLn.Close()
	_ = h.srvLn.Close()
	h.mu.Lock()
	for c := range h.conns {
		_ = c.Close()
	}
	h.mu.Unlock()
	err := h.mb.Close()
	h.wg.Wait()
	return err
}

// wireCounts tallies, by record type, the records and wire bytes the
// server endpoint reads (client to server) and writes (server to client).
type wireCounts struct {
	mu      sync.Mutex
	records [2]map[transport.RecordType]int
	bytes   [2]map[transport.RecordType]int
}

const (
	c2s = 0
	s2c = 1
)

func newWireCounts() *wireCounts {
	wc := &wireCounts{}
	wc.reset()
	return wc
}

func (wc *wireCounts) reset() {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for d := range wc.records {
		wc.records[d] = map[transport.RecordType]int{}
		wc.bytes[d] = map[transport.RecordType]int{}
	}
}

// dataPath sums the records and wire bytes of one direction after the
// handshake: data, token, salt and close records.
func (wc *wireCounts) dataPath(dir int) (records, bytes, data int) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for _, t := range []transport.RecordType{transport.RecData, transport.RecTokens, transport.RecSalt, transport.RecClose} {
		records += wc.records[dir][t]
		bytes += wc.bytes[dir][t]
	}
	return records, bytes, wc.records[dir][transport.RecData]
}

// countingConn parses the record framing of everything read and written
// through it.
type countingConn struct {
	net.Conn
	wc      *wireCounts
	in, out frameParser
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n], c.wc, c2s)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n], c.wc, s2c)
	return n, err
}

// frameParser follows the 5-byte record headers of a byte stream.
type frameParser struct {
	hdr  [5]byte
	have int // header bytes seen
	left int // body bytes still to skip
}

func (f *frameParser) feed(p []byte, wc *wireCounts, dir int) {
	for len(p) > 0 {
		if f.left > 0 {
			k := min(f.left, len(p))
			f.left, p = f.left-k, p[k:]
			continue
		}
		k := copy(f.hdr[f.have:], p)
		f.have, p = f.have+k, p[k:]
		if f.have == len(f.hdr) {
			typ, n := transport.RecordType(f.hdr[0]), int(binary.BigEndian.Uint32(f.hdr[1:]))
			wc.mu.Lock()
			wc.records[dir][typ]++
			wc.bytes[dir][typ] += len(f.hdr) + n
			wc.mu.Unlock()
			f.have, f.left = 0, n
		}
	}
}
