package main

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/garble"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/ruleprep"
	"repro/internal/tokenize"
	"repro/internal/transport"
)

const (
	// setupLayerReps is how many local rule preparations the traced pass
	// times; the setup layers report their medians.
	setupLayerReps = 3
	// layerBytes is how much plaintext the data-path layers process at
	// least, repeating the workload's stream as needed.
	layerBytes = 2 << 20
	// countRequests is the fixed request count of the record-counting
	// pass, so its per-request counts repeat exactly.
	countRequests = 8
	// recordIOBytes is how much record body the record I/O pass moves
	// at least, repeating the input's records.
	recordIOBytes = 64 << 20
	// maxSessionStreams bounds the fresh streams of a per-session
	// workload's layer pass.
	maxSessionStreams = 64
)

// tracer keeps spans in memory and sums their durations per layer.
type tracer struct {
	spans []obs.Span
	total map[string]time.Duration
}

func newTracer() *tracer { return &tracer{total: map[string]time.Duration{}} }

// span times f as one call into a layer.
func (t *tracer) span(name, party string, flow, tokens, bytes int, f func()) {
	start := time.Now()
	f()
	d := time.Since(start)
	t.spans = append(t.spans, obs.Span{
		Flow: uint64(flow), Party: party, Name: name,
		Start: start.UnixNano(), Dur: int64(d), Tokens: tokens, Bytes: bytes,
	})
	t.total[name] += d
}

// write stores the spans as JSONL for bbtrace -spans.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for _, sp := range t.spans {
		sink.Emit(sp)
	}
	if err := sink.Close(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// traced runs the per-layer pass after the untraced window w, m and
// returns the per-layer metrics, including the budget.
func traced(cfg runConfig, sp spec, fx *fixture, wl workload, w *window, m measured, out io.Writer) (map[string]metric, error) {
	t := newTracer()
	k0 := bbcrypto.RandomBlock()
	keys := bbcrypto.DeriveSessionKeys(k0[:])
	set, err := setupLayers(t, fx, keys)
	if err != nil {
		return nil, err
	}
	data, err := dataLayers(t, fx, keys, wl, sp.perSession)
	if err != nil {
		return nil, err
	}
	wire, err := countWire(fx, sp, wl)
	if err != nil {
		return nil, err
	}
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, cfg.seed))
		if err := t.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "bbbench: %d spans written to %s\n", len(t.spans), path)
	}

	mets := map[string]metric{
		"circuit.and_gates":                     {float64(set.andGates), "count"},
		"circuit.build_ms":                      {ms(set.build), "ms"},
		"ruleprep.rule_enc_ms":                  {ms(set.ruleEnc), "ms"},
		"garble.garble_ms":                      {ms(set.garble), "ms"},
		"garble.material_bytes":                 {float64(set.material), "bytes"},
		"garble.unmarshal_ms":                   {ms(set.unmarshal), "ms"},
		"ot.base_ms":                            {ms(set.otBase), "ms"},
		"ot.ext_ms":                             {ms(set.otExt), "ms"},
		"ot.bytes":                              {float64(set.otBytes), "bytes"},
		"ruleprep.evaluate_ms":                  {ms(set.evaluate), "ms"},
		"detect.engine_build_ms":                {ms(set.engine), "ms"},
		"tokenize.ns_per_byte":                  {data.tokenize, "ns/B"},
		"tokenize.tokens_per_kib":               {data.tokensPerKiB, "count"},
		"dpienc.assign_ns_per_token":            {data.assign, "ns/token"},
		"dpienc.aes_ns_per_token":               {data.aes, "ns/token"},
		"dpienc.allocs_per_token":               {data.encAllocs, "allocs/token"},
		"dpienc.distinct_tokens":                {float64(data.distinct), "count"},
		"dpienc.sender_state_mib":               {data.senderState, "MiB"},
		"core.validate_ns_per_byte":             {data.validate, "ns/B"},
		"transport.marshal_ns_per_token":        {data.marshal, "ns/token"},
		"transport.unmarshal_ns_per_token":      {data.unmarshal, "ns/token"},
		"transport.seal_us_per_record":          {data.seal, "us/record"},
		"transport.open_us_per_record":          {data.open, "us/record"},
		"transport.record_io_us_per_record":     {data.recordIO, "us/record"},
		"detect.scan_ns_per_token":              {data.scan, "ns/token"},
		"detect.allocs_per_token":               {data.scanAllocs, "allocs/token"},
		"transport.records_per_request":         {wire.records, "count"},
		"transport.wire_bytes_per_payload_byte": {wire.wireRatio, "count"},
		"runtime.gc_cpu_share":                  {m.gcShare, "share"},
	}
	cost := budget(sp, set, data, wire, w, m)
	fmt.Fprintf(out, "bbbench: layers account for %.3fs of the untraced window's %.3fs process CPU\n", cost.Seconds(), m.cpu.Seconds())
	mets["budget.unattributed_share"] = metric{1 - ratio(float64(cost), float64(m.cpu)), "share"}
	return mets, nil
}

// budget is Σ(layer cost × units of that layer's work in the untraced
// window): the CPU the layers account for, to compare with the process CPU
// the window used.
func budget(sp spec, set setupCosts, data dataCosts, wire wireCosts, w *window, m measured) time.Duration {
	requests := float64(len(w.latencies))
	payload := float64(w.bytes)
	if sp.echo {
		payload *= 2
	}
	tokens := float64(m.tokens)
	ns := 0.0
	if !sp.preEncrypted {
		// Senders tokenize, assign, encrypt, marshal and seal; receivers
		// unmarshal, open and validate (re-tokenize and re-encrypt).
		ns += payload * (data.tokenize + data.validate)
		ns += tokens * (data.assign + data.aes + data.marshal + data.unmarshal)
		ns += requests * wire.dataRecords * (data.seal + data.open) * 1e3
	}
	// The middlebox unmarshals and scans every token; every record
	// crosses two hops (client → middlebox → server, and back).
	ns += tokens * (data.unmarshal + data.scan)
	ns += requests * wire.records * 2 * data.recordIO * 1e3
	if sp.perSession {
		perSession := set.ruleEnc + set.evaluate + 2*(set.garble+set.unmarshal+set.otBase+set.otExt+set.engine)
		ns += requests * float64(perSession)
	}
	return time.Duration(ns)
}

// setupCosts are per-session costs of the rule-preparation layers (one
// endpoint's share where both endpoints do the work), medians over
// setupLayerReps local preparations.
type setupCosts struct {
	andGates                 int
	material, otBytes        int
	build, ruleEnc, garble   time.Duration
	unmarshal, otBase, otExt time.Duration
	evaluate, engine         time.Duration
}

// setupLayers runs the §3.3 rule preparation locally, one layer at a
// time, through the same calls the endpoints and the middlebox make on
// the wire, and checks that the middlebox ends with the right token keys.
func setupLayers(t *tracer, fx *fixture, keys bbcrypto.SessionKeys) (setupCosts, error) {
	var c setupCosts
	var build, ruleEnc, garb, unm, base, ext, eval, eng []time.Duration
	cfg := core.DefaultConfig()
	direct := core.DirectTokenKeys(keys.K, fx.ruleset, cfg.Mode)
	for rep := 0; rep < setupLayerReps; rep++ {
		var circ *circuit.Circuit
		d := timed(t, "circuit.build", "mb", rep, func() { circ = circuit.BuildRuleEncrypt(circuit.SBoxGF) })
		build, c.andGates = append(build, d), circ.NumAND()

		req := core.BuildRequest(fx.signed, cfg.Mode)
		var prep *ruleprep.Middlebox
		var err error
		ruleEnc = append(ruleEnc, timed(t, "ruleprep.rule_enc", "mb", rep, func() { prep, err = ruleprep.NewMiddlebox(req) }))
		if err != nil {
			return c, err
		}
		n := prep.NumFragments()
		var choices []bool
		for i := 0; i < n; i++ {
			choices = append(choices, prep.Choices(i)...)
		}

		// Both endpoints garble the same circuits from the shared seed; the
		// middlebox unmarshals each leg's and runs one OT batch per leg.
		var jobs [2][]*ruleprep.FragmentJob
		var labels [2][]bbcrypto.Block
		for leg, party := range []string{"client", "server"} {
			ep := ruleprep.NewEndpoint(keys.K, fx.rg.TagKey(), keys.KRand)
			// One circuit per call: GarbleAll spreads these over all cores,
			// and the budget needs their CPU, not their wall time.
			own := make([]*ruleprep.FragmentJob, n)
			var spent time.Duration
			for i := range own {
				spent += timed(t, "garble.garble", party, rep, func() { own[i], err = ep.Garble(i) })
				if err != nil {
					return c, err
				}
			}
			garb = append(garb, spent)
			blobs := make([][]byte, n)
			c.material = 0
			for i, j := range own {
				blobs[i] = j.G.Marshal()
				c.material += len(blobs[i]) + len(transport.MarshalBlocks(j.EndpointLabels))
			}
			jobs[leg] = make([]*ruleprep.FragmentJob, n)
			unm = append(unm, timed(t, "garble.unmarshal", "mb", rep, func() {
				for i := range blobs {
					var g *garble.Garbled
					if g, err = garble.Unmarshal(blobs[i]); err != nil {
						return
					}
					jobs[leg][i] = ruleprep.NewFragmentJob(i, g, own[i].EndpointLabels)
				}
			}))
			if err != nil {
				return c, err
			}

			var pairs [][2]bbcrypto.Block
			for _, j := range own {
				pairs = append(pairs, j.OTPairs()...)
			}
			var (
				recv   *ot.ExtReceiver
				send   *ot.ExtSender
				msgAs  [][]byte
				msgBs  [][]byte
				u      [][]byte
				masked [][2]bbcrypto.Block
			)
			base = append(base, timed(t, "ot.base", "mb", rep, func() {
				if recv, msgAs, err = ot.NewExtReceiver(); err != nil {
					return
				}
				send = ot.NewExtSender()
				msgBs, err = send.BaseRespond(msgAs)
			}))
			if err != nil {
				return c, err
			}
			ext = append(ext, timed(t, "ot.ext", "mb", rep, func() {
				if u, err = recv.Extend(msgBs, choices); err != nil {
					return
				}
				if masked, err = send.Send(u, pairs); err != nil {
					return
				}
				labels[leg], err = recv.Receive(masked, choices)
			}))
			if err != nil {
				return c, err
			}
			c.otBytes = len(transport.MarshalByteSlices(msgAs)) + len(transport.MarshalByteSlices(msgBs)) +
				len(transport.MarshalByteSlices(u)) + 2*len(masked)*len(bbcrypto.Block{})
		}

		tks := make([]*dpienc.TokenKey, n)
		per := len(labels[0]) / n
		eval = append(eval, timed(t, "ruleprep.evaluate", "mb", rep, func() {
			for i := 0; i < n && err == nil; i++ {
				var k dpienc.TokenKey
				k, err = prep.VerifyAndEvaluate(i, jobs[0][i], jobs[1][i], labels[0][i*per:(i+1)*per], labels[1][i*per:(i+1)*per])
				tks[i] = &k
			}
		}))
		if err != nil {
			return c, err
		}
		tokenKeys := core.TokenKeysFromPrep(req, tks)
		if len(tokenKeys) != len(direct) {
			return c, fmt.Errorf("rule preparation produced %d token keys, want %d", len(tokenKeys), len(direct))
		}
		for f, k := range direct {
			got := tokenKeys[f]
			if subtle.ConstantTimeCompare(got[:], k[:]) != 1 {
				return c, errors.New("rule preparation produced a wrong token key")
			}
		}
		// The middlebox builds one engine per flow direction.
		for dir := 0; dir < 2; dir++ {
			eng = append(eng, timed(t, "detect.engine_build", "mb", rep, func() {
				core.NewDetectEngine(fx.ruleset, tokenKeys, cfg, nil)
			}))
		}
	}
	c.build, c.ruleEnc, c.garble = quantile(build, 0.5), quantile(ruleEnc, 0.5), quantile(garb, 0.5)
	c.unmarshal, c.otBase, c.otExt = quantile(unm, 0.5), quantile(base, 0.5), quantile(ext, 0.5)
	c.evaluate, c.engine = quantile(eval, 0.5), quantile(eng, 0.5)
	return c, nil
}

// timed records f as a span and returns its duration.
func timed(t *tracer, name, party string, flow int, f func()) time.Duration {
	t.span(name, party, flow, 0, 0, f)
	return time.Duration(t.spans[len(t.spans)-1].Dur)
}

// dataCosts are the per-unit costs of the data-path layers.
type dataCosts struct {
	tokenize, validate                  float64 // ns per byte
	assign, aes, marshal, unmarshal     float64 // ns per token
	scan                                float64 // ns per token
	seal, open, recordIO                float64 // µs per record
	tokensPerKiB, encAllocs, scanAllocs float64
	distinct                            int
	senderState                         float64 // MiB
}

// chunk is one application write and the records it became.
type chunk struct {
	text  []byte
	toks  []tokenize.Token
	reset bool
	salt  uint64
	body  []byte // token record
	ct    []byte // data record
	recv  []dpienc.EncryptedToken
}

// stream is one token stream: a session's sender, middlebox engine and
// receiver state, and its writes.
type stream struct {
	chunks []*chunk
	tk     *tokenize.Tokenizer
	snd    *dpienc.Sender
	eng    *detect.Engine
	val    *core.Validator
	last   bool // the stream ends: flush the tokenizer, finish validation
}

// dataLayers sends the workload's client stream, write by write, through
// each data-path layer in the order a record meets them: tokenize, assign,
// AES, marshal and seal at the sender; unmarshal and scan at the
// middlebox; open and validate at the receiver. Each write is one call per
// layer, so its data stays in cache as on the live path. Streams repeat
// until layerBytes were processed; a per-session workload starts a fresh
// stream each time. Record I/O and allocation counts are separate passes.
func dataLayers(t *tracer, fx *fixture, keys bbcrypto.SessionKeys, wl workload, perSession bool) (dataCosts, error) {
	var c dataCosts
	cfg := core.DefaultConfig()
	tokenKeys := core.DirectTokenKeys(keys.K, fx.ruleset, cfg.Mode)
	input := wl.stream()
	inBytes := 0
	for _, p := range input {
		inBytes += len(p)
	}
	reps := max(1, (layerBytes+inBytes-1)/inBytes)
	if perSession {
		// Each fresh stream holds a detection engine; bound their memory.
		reps = min(reps, maxSessionStreams)
	}
	newStream := func() *stream {
		return &stream{
			tk:   tokenize.New(cfg.Mode),
			snd:  dpienc.NewSender(keys.K, keys.KSSL, cfg.Protocol, cfg.Salt0),
			eng:  core.NewDetectEngine(fx.ruleset, tokenKeys, cfg, nil),
			val:  core.NewValidator(keys, cfg),
			last: perSession,
		}
	}
	var streams []*stream
	for r := 0; r < reps; r++ {
		if perSession || r == 0 {
			streams = append(streams, newStream())
		}
		s := streams[len(streams)-1]
		for _, p := range input {
			s.chunks = append(s.chunks, &chunk{text: p})
		}
	}

	aead := bbcrypto.NewGCM(keys.KSSL)
	aad := []byte{byte(transport.RecData)}
	var (
		bytes, tokens, records, events int
		asg                            []dpienc.TokenAssignment
		enc                            []dpienc.EncryptedToken
		evs                            []detect.Event
		pt, plaintext                  []byte
		err                            error
	)
	distinct := map[[tokenize.TokenSize]byte]bool{}
	for si, s := range streams {
		for i, ch := range s.chunks {
			end := s.last && i == len(s.chunks)-1
			n := len(ch.text)
			t.span("tokenize", "client", si, 0, n, func() {
				ch.toks = s.tk.Append(ch.text)
				if end {
					ch.toks = append(ch.toks, s.tk.Flush()...)
				}
			})
			k := len(ch.toks)
			t.span("dpienc.assign", "client", si, k, n, func() {
				ch.salt, ch.reset = s.snd.AccountBytes(n)
				asg = s.snd.AssignTokens(ch.toks, asg[:0])
			})
			enc = dpienc.GrowTokenBuf(enc, k)
			t.span("dpienc.aes", "client", si, k, n, func() { s.snd.EncryptAssigned(asg, enc) })
			t.span("transport.marshal", "client", si, k, n, func() { ch.body = transport.MarshalTokens(enc, false) })
			pt = append(append(pt[:0], 0), ch.text...)
			t.span("transport.seal", "client", si, 0, n, func() { ch.ct = aead.Seal(nil, nonce(i), pt, aad) })
			t.span("transport.unmarshal", "mb", si, k, n, func() { ch.recv, err = transport.UnmarshalTokens(ch.body, false) })
			if err != nil {
				return c, err
			}
			t.span("detect.scan", "mb", si, k, n, func() {
				if ch.reset {
					s.eng.Reset(ch.salt)
				}
				evs = s.eng.ScanBatch(ch.recv, evs[:0])
			})
			for _, ev := range evs {
				if ev.Kind == detect.KeywordMatch {
					events++
				}
			}
			t.span("transport.open", "server", si, 0, n, func() { plaintext, err = aead.Open(plaintext[:0], nonce(i), ch.ct, aad) })
			if err != nil {
				return c, err
			}
			t.span("core.validate", "server", si, k, n, func() {
				s.val.ReceiveTokens(ch.recv)
				if err = s.val.ValidateText(plaintext[1:]); err == nil && end {
					err = s.val.Finish()
				}
			})
			if err != nil {
				return c, fmt.Errorf("layer pass: validation: %w", err)
			}
			bytes, tokens, records = bytes+n, tokens+k, records+1
			if si > 0 || i >= len(input) {
				// Keep one pass over the input for the record I/O and
				// allocation passes; a small live heap keeps GC work out of
				// the spans.
				*ch = chunk{}
				continue
			}
			for _, tk := range ch.toks {
				distinct[tk.Text] = true
			}
		}
	}
	if tokens == 0 {
		return c, errors.New("the workload's stream produced no tokens")
	}
	if want := reps * wl.hits(); events != want {
		return c, fmt.Errorf("layer pass: detect found %d keyword hits, ground truth plants %d", events, want)
	}
	first := streams[0].chunks[:len(input)]
	if c.recordIO, err = recordIO(t, first); err != nil {
		return c, err
	}

	perByte := func(name string) float64 { return float64(t.total[name]) / float64(bytes) }
	perToken := func(name string) float64 { return float64(t.total[name]) / float64(tokens) }
	perRecord := func(name string) float64 { return float64(t.total[name]) / 1e3 / float64(records) }
	c.tokenize, c.validate = perByte("tokenize"), perByte("core.validate")
	c.assign, c.aes = perToken("dpienc.assign"), perToken("dpienc.aes")
	c.marshal, c.unmarshal, c.scan = perToken("transport.marshal"), perToken("transport.unmarshal"), perToken("detect.scan")
	c.seal, c.open = perRecord("transport.seal"), perRecord("transport.open")
	c.tokensPerKiB = float64(tokens) / (float64(bytes) / 1024)
	c.distinct = len(distinct)
	c.encAllocs, c.senderState, c.scanAllocs = allocPass(fx, keys, tokenKeys, first)
	return c, nil
}

// nonce is the record nonce of client-to-server data record seq.
func nonce(seq int) []byte {
	n := make([]byte, 12)
	binary.BigEndian.PutUint64(n[4:], uint64(seq))
	return n
}

// allocPass replays one pass over the input through a fresh sender and a fresh engine,
// untimed, and returns the allocations per token of assign plus AES and
// of scan, and the heap the sender retains: its per-distinct-token state.
func allocPass(fx *fixture, keys bbcrypto.SessionKeys, tokenKeys detect.TokenKeys, chunks []*chunk) (encAllocs, stateMiB, scanAllocs float64) {
	cfg := core.DefaultConfig()
	tokens := 0
	for _, ch := range chunks {
		tokens += len(ch.toks)
	}
	var (
		asg           []dpienc.TokenAssignment
		enc           []dpienc.EncryptedToken
		evs           []detect.Event
		before, after runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&before)
	snd := dpienc.NewSender(keys.K, keys.KSSL, cfg.Protocol, cfg.Salt0)
	for _, ch := range chunks {
		snd.AccountBytes(len(ch.text))
		asg = snd.AssignTokens(ch.toks, asg[:0])
		enc = dpienc.GrowTokenBuf(enc, len(asg))
		snd.EncryptAssigned(asg, enc)
	}
	asg, enc = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(snd)
	encAllocs = float64(after.Mallocs-before.Mallocs) / float64(tokens)
	stateMiB = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)

	eng := core.NewDetectEngine(fx.ruleset, tokenKeys, cfg, nil)
	runtime.ReadMemStats(&before)
	for _, ch := range chunks {
		if ch.reset {
			eng.Reset(ch.salt)
		}
		evs = eng.ScanBatch(ch.recv, evs[:0])
	}
	runtime.ReadMemStats(&after)
	scanAllocs = float64(after.Mallocs-before.Mallocs) / float64(tokens)
	return encAllocs, stateMiB, scanAllocs
}

// recordIO writes the chunks' token and data records (repeated up to
// recordIOBytes) over a loopback
// TCP pair with WriteRecord and reads them with ReadRecord, and returns
// the process CPU per record in µs. Writer and reader run on two
// goroutines, as the two ends of a hop do, so CPU rather than wall time
// is what adds up against the untraced run's CPU.
func recordIO(t *tracer, chunks []*chunk) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	defer b.Close()

	type rec struct {
		typ  transport.RecordType
		body []byte
	}
	var recs []rec
	wire := 0
	for wire < recordIOBytes {
		for _, ch := range chunks {
			recs = append(recs, rec{transport.RecTokens, ch.body}, rec{transport.RecData, ch.ct})
			wire += len(ch.body) + len(ch.ct)
		}
	}
	werr := make(chan error, 1)
	// Collect earlier passes' garbage first, so its GC does not land here.
	runtime.GC()
	cpu0 := cpuTime()
	go func() {
		for _, r := range recs {
			if err := transport.WriteRecord(a, r.typ, r.body); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	rerr := func() error {
		for i, r := range recs {
			var typ transport.RecordType
			var body []byte
			var err error
			t.span("transport.record_io", "mb", 0, 0, len(r.body), func() { typ, body, err = transport.ReadRecord(b) })
			if err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			if typ != r.typ || len(body) != len(r.body) {
				return fmt.Errorf("record %d came back changed", i)
			}
		}
		return nil
	}()
	if rerr != nil {
		// Unblock the writer before waiting for it.
		_ = b.Close()
		_ = a.Close()
	}
	if err := <-werr; err != nil && rerr == nil {
		rerr = err
	}
	cpu := cpuTime() - cpu0
	if rerr != nil {
		return 0, rerr
	}
	return float64(cpu) / 1e3 / float64(len(recs)), nil
}

// wireCosts are the per-request record counts of the workload, taken on a
// live session whose server leg counts record framing.
type wireCosts struct {
	records     float64 // records per request, both directions
	dataRecords float64 // data records per request, both directions
	wireRatio   float64 // client-to-server wire bytes per payload byte
}

// countWire runs countRequests requests of the workload, from one client,
// through a fresh deployment whose server leg parses the record framing.
func countWire(fx *fixture, sp spec, wl workload) (wireCosts, error) {
	var c wireCosts
	h, err := newHarness(fx, wl.serve, true)
	if err != nil {
		return c, err
	}
	if err := wl.open(h); err != nil {
		_ = h.close()
		return c, err
	}
	h.counts.reset()
	if err := wl.ready(h); err != nil {
		wl.shutdown()
		_ = h.close()
		return c, err
	}
	// One client: with two, how streams interleave moves token flushes
	// between records and the counts would not repeat.
	w, _ := measure(h, wl, 1, time.Hour, countRequests)
	verr := wl.verify(h, w)
	wl.shutdown()
	if err := h.close(); err != nil {
		return c, err
	}
	if w.failed > 0 || len(w.latencies) != countRequests {
		return c, fmt.Errorf("counting pass: %d of %d requests failed: %v", w.failed, countRequests, w.errs)
	}
	if verr != nil {
		return c, fmt.Errorf("counting pass: %w", verr)
	}
	up, upBytes, upData := h.counts.dataPath(c2s)
	down, _, downData := h.counts.dataPath(s2c)
	n := float64(countRequests)
	c.records = float64(up+down) / n
	c.dataRecords = float64(upData+downData) / n
	c.wireRatio = float64(upBytes) / float64(w.bytes)
	return c, nil
}
