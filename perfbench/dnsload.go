package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/dnswire"
	"hoiho/internal/geoloc"
)

// The dns-hot query stream.
const (
	dnsPoolSize = 2000 // located hostnames the Zipf draw picks from; fits the 4096-entry LRU
	dnsNXNames  = 100  // names under suffixes the index does not serve
	dnsZipfS    = 1.1
	// Query mix, cumulative: TXT, LOC, PTR on pool names, then TXT on
	// an unindexed name (NXDOMAIN).
	dnsTXTFrac = 0.80
	dnsLOCFrac = 0.90
	dnsPTRFrac = 0.95
	// dnsEDNSSize is the payload size the queries advertise.
	dnsEDNSSize = 1232
	// dnsTimeout is how long a query may go unanswered before it counts
	// as lost. IDs wrap every 65536 queries, over 4s even at 16k qps, so
	// a slot is never reused while its query may still be answered.
	dnsTimeout = time.Second
)

// dnsKey is one distinct question.
type dnsKey struct {
	name  string
	qtype dnswire.Type
}

// dnsStream is the seeded query stream: the distinct questions, each
// packed once with a zero ID, and the draw that orders them.
type dnsStream struct {
	keys    []dnsKey
	packets [][]byte
	qend    []int // per key: end of the question section in packets
	rng     *rand.Rand
	zipf    *rand.Zipf
	pool    int // keys [0, 3*pool) are TXT/LOC/PTR of pool names
	nx      int // keys [3*pool, 3*pool+nx) are TXT of unindexed names
}

// newDNSStream builds the stream for a seed. located must list the
// hostnames the oracle locates; nx the unindexed names.
func newDNSStream(seed int64, located, nx []string) (*dnsStream, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x646e73))
	pool := slices.Clone(located)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > dnsPoolSize {
		pool = pool[:dnsPoolSize]
	}
	if len(pool) == 0 || len(nx) == 0 {
		return nil, errors.New("dns stream: empty name pool")
	}
	s := &dnsStream{rng: rng, pool: len(pool), nx: len(nx)}
	for _, t := range []dnswire.Type{dnswire.TypeTXT, dnswire.TypeLOC, dnswire.TypePTR} {
		for _, h := range pool {
			s.keys = append(s.keys, dnsKey{h, t})
		}
	}
	for _, h := range nx {
		s.keys = append(s.keys, dnsKey{h, dnswire.TypeTXT})
	}
	for _, k := range s.keys {
		q := &dnswire.Message{
			RecursionDesired: true,
			Questions:        []dnswire.Question{{Name: k.name, Type: k.qtype, Class: dnswire.ClassINET}},
			EDNS:             &dnswire.EDNS{UDPSize: dnsEDNSSize},
		}
		b, err := q.Pack()
		if err != nil {
			return nil, fmt.Errorf("pack query for %s: %w", k.name, err)
		}
		s.packets = append(s.packets, b)
		s.qend = append(s.qend, questionEnd(b))
	}
	s.zipf = rand.NewZipf(rng, dnsZipfS, 1, uint64(len(pool)-1))
	return s, nil
}

// next draws the next query's key index.
func (s *dnsStream) next() int32 {
	u := s.rng.Float64()
	name := int(s.zipf.Uint64())
	switch {
	case u < dnsTXTFrac:
		return int32(name)
	case u < dnsLOCFrac:
		return int32(s.pool + name)
	case u < dnsPTRFrac:
		return int32(2*s.pool + name)
	}
	return int32(3*s.pool + s.rng.Intn(s.nx))
}

// take draws n queries.
func (s *dnsStream) take(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// nxNames returns n names whose registrable domains the index does not
// serve.
func nxNames(ix *geoloc.Index, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		h := fmt.Sprintf("xe-%d-0-0.core%d.unindexed%d.net", i%4, i, i)
		if ix.Convention(ix.Suffix(h)) == nil {
			out = append(out, h)
		}
	}
	return out
}

// dnsExpect is the oracle's answer to one question.
type dnsExpect struct {
	rcode dnswire.RCode
	data  dnswire.RData // nil: no answer record
}

// expectDNS derives the answer geodns must give from the oracle index:
// NXDOMAIN for an unlocated name; otherwise one TXT record of
// geoloc.AnswerStrings, one PTR of geoloc.PTRTarget, or one LOC at the
// location (an empty NOERROR when the location has no position).
func expectDNS(ix *geoloc.Index, k dnsKey) dnsExpect {
	g, ok := ix.Lookup(k.name)
	if !ok || g.Loc == nil {
		return dnsExpect{rcode: dnswire.RCodeNXDomain}
	}
	e := dnsExpect{rcode: dnswire.RCodeNoError}
	switch k.qtype {
	case dnswire.TypeTXT:
		e.data = dnswire.TXT(geoloc.AnswerStrings(g))
	case dnswire.TypePTR:
		e.data = dnswire.PTR(geoloc.PTRTarget(g))
	case dnswire.TypeLOC:
		if g.Loc.Pos.Valid() {
			e.data = dnswire.NewLOC(g.Loc.Pos.Lat, g.Loc.Pos.Long)
		}
	}
	return e
}

// checkDNS compares a decoded reply with the oracle's answer.
func checkDNS(r *dnswire.Message, id uint16, k dnsKey, want dnsExpect) error {
	switch {
	case !r.Response || r.ID != id:
		return fmt.Errorf("%s %s: not a response to id %d", k.name, k.qtype, id)
	case len(r.Questions) != 1 || strings.TrimSuffix(r.Questions[0].Name, ".") != k.name || r.Questions[0].Type != k.qtype:
		return fmt.Errorf("%s %s: reply is for %v", k.name, k.qtype, r.Questions)
	case r.RCode != want.rcode:
		return fmt.Errorf("%s %s: rcode %s, want %s", k.name, k.qtype, r.RCode, want.rcode)
	case want.data == nil && len(r.Answers) != 0:
		return fmt.Errorf("%s %s: %d answers, want none", k.name, k.qtype, len(r.Answers))
	case want.data == nil:
		return nil
	case len(r.Answers) != 1:
		return fmt.Errorf("%s %s: %d answers, want 1", k.name, k.qtype, len(r.Answers))
	}
	got := r.Answers[0].Data
	var same bool
	switch w := want.data.(type) {
	case dnswire.TXT:
		g, ok := got.(dnswire.TXT)
		same = ok && slices.Equal(g, w)
	case dnswire.PTR:
		g, ok := got.(dnswire.PTR)
		same = ok && g == w
	case dnswire.LOC:
		g, ok := got.(dnswire.LOC)
		same = ok && g == w
	}
	if !same {
		return fmt.Errorf("%s %s: answer %v, want %v", k.name, k.qtype, got, want.data)
	}
	return nil
}

// dnsChecker verifies replies against the oracle. A reply that passed
// once is remembered byte for byte (past its ID), so repeated questions
// cost a comparison rather than a decode. Only the receiving goroutine
// uses it.
type dnsChecker struct {
	keys     []dnsKey
	want     []dnsExpect
	verified [][]byte
}

func newDNSChecker(ix *geoloc.Index, keys []dnsKey) *dnsChecker {
	c := &dnsChecker{keys: keys, want: make([]dnsExpect, len(keys)), verified: make([][]byte, len(keys))}
	for i, k := range keys {
		c.want[i] = expectDNS(ix, k)
	}
	return c
}

// check verifies reply, the answer to question key sent with id.
func (c *dnsChecker) check(key int32, id uint16, reply []byte) error {
	if v := c.verified[key]; v != nil && len(reply) >= 2 && bytes.Equal(reply[2:], v) {
		return nil
	}
	r, err := dnswire.Unpack(reply)
	if err != nil {
		return fmt.Errorf("%s %s: undecodable reply: %v", c.keys[key].name, c.keys[key].qtype, err)
	}
	if err := checkDNS(r, id, c.keys[key], c.want[key]); err != nil {
		return err
	}
	c.verified[key] = slices.Clone(reply[2:])
	return nil
}

// pendingTable matches UDP replies to queries by the 16-bit DNS ID.
// IDs come from a running counter, so they wrap every 65536 queries; a
// slot still outstanding when its ID comes round again belongs to a
// query at least 65536 sends old, far past dnsTimeout, and is evicted
// as lost. A reply is matched only when its ID is outstanding and the
// caller accepts it (the generator compares the echoed question), so a
// duplicate, or a late reply to an evicted query whose ID now belongs
// to a newer one, is a stray and leaves the slot alone.
type pendingTable struct {
	mu    sync.Mutex
	slots [1 << 16]int32 // window-local request index + 1; 0 = free
	next  uint32         // running ID counter, continues across windows
}

// send allocates the ID for request seq. evicted is the request whose
// unanswered slot was reused, or -1.
func (p *pendingTable) send(seq int) (id uint16, evicted int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id = uint16(p.next)
	p.next++
	evicted = int(p.slots[id]) - 1
	p.slots[id] = int32(seq) + 1
	return id, evicted
}

// take resolves a reply's ID to its outstanding request and frees the
// slot if accept(seq) agrees the reply answers that request; ok is
// false for a stray.
func (p *pendingTable) take(id uint16, accept func(seq int) bool) (seq int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.slots[id]
	if s == 0 || !accept(int(s)-1) {
		return 0, false
	}
	p.slots[id] = 0
	return int(s) - 1, true
}

// sameQuestion reports whether reply echoes query's question section,
// which starts right after the 12-byte header in both.
func sameQuestion(reply, query []byte, qend int) bool {
	return len(reply) >= qend && bytes.Equal(reply[12:qend], query[12:qend])
}

// questionEnd returns the offset just past the single question of a
// query packed without compression.
func questionEnd(pkt []byte) int {
	off := 12
	for off < len(pkt) && pkt[off] != 0 {
		off += int(pkt[off]) + 1
	}
	return off + 1 + 4 // root label, type, class
}

// reset frees every slot (between windows, once late replies are
// written off).
func (p *pendingTable) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slots = [1 << 16]int32{}
}

// udpGen is the dns-hot load generator: one connected UDP socket, the
// calling goroutine sending on schedule and one goroutine receiving —
// two goroutines, matching the two CPUs the benchmark assumes.
type udpGen struct {
	conn    *net.UDPConn
	stream  *dnsStream
	check   *dnsChecker
	pending pendingTable
	// replyBytes and replies total the reply sizes received.
	replyBytes, replies atomic.Int64
}

func newUDPGen(addr string, stream *dnsStream, check *dnsChecker) (*udpGen, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	// Deep buffers so a brief stall in the benchmark never drops the
	// daemon's replies; loss then means the daemon's side.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	return &udpGen{conn: conn, stream: stream, check: check}, nil
}

func (g *udpGen) close() error { return g.conn.Close() }

// query sends one question closed-loop and checks the answer, retrying
// a lost datagram; used for warm-up and set-up probes.
func (g *udpGen) query(key int32, timeout time.Duration) error {
	pkt := slices.Clone(g.stream.packets[key])
	buf := make([]byte, 65536)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		id, _ := g.pending.send(0)
		pkt[0], pkt[1] = byte(id>>8), byte(id)
		if _, err := g.conn.Write(pkt); err != nil {
			return err
		}
		_ = g.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		for {
			n, err := g.conn.Read(buf)
			if err != nil {
				break // timeout or a refused port not yet bound: resend
			}
			if n < 2 || uint16(buf[0])<<8|uint16(buf[1]) != id {
				continue
			}
			g.pending.take(id, func(int) bool { return true })
			return g.check.check(key, id, buf[:n])
		}
		g.pending.take(id, func(int) bool { return true })
	}
	return fmt.Errorf("no reply to %s within %v", g.stream.keys[key].name, timeout)
}

// run sends the window's queries on schedule and collects replies.
// rec, when non-nil, receives one span per answered query.
func (g *udpGen) run(s schedule, keys []int32, rec *recorder) *window {
	w := newWindow(s)
	sentAt := make([]time.Time, s.n)
	var sendDone atomic.Bool
	var answered atomic.Int64
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		g.receive(w, keys, sentAt, &sendDone, &answered, rec)
	}()

	p := newPacer()
	pkt := make([]byte, 0, 512)
	for i := 0; i < s.n; i++ {
		p.sleepUntil(s.due(i))
		pkt = append(pkt[:0], g.stream.packets[keys[i]]...)
		now := time.Now()
		sentAt[i] = now
		id, _ := g.pending.send(i)
		pkt[0], pkt[1] = byte(id>>8), byte(id)
		w.lag[i] = s.lag(i, now)
		// A failed write is a lost query; the receiver's timeout
		// accounts for it.
		_, _ = g.conn.Write(pkt)
	}
	p.release()
	sendDone.Store(true)
	<-recvDone
	w.lost = s.n - int(answered.Load()) - w.wrong
	g.pending.reset()
	return w
}

// receive reads replies until every query is answered or the last one
// has had dnsTimeout to arrive.
func (g *udpGen) receive(w *window, keys []int32, sentAt []time.Time, sendDone *atomic.Bool,
	answered *atomic.Int64, rec *recorder) {
	buf := make([]byte, 65536)
	var lastDue time.Time
	if w.sched.n > 0 {
		lastDue = w.sched.due(w.sched.n - 1)
	}
	for {
		if sendDone.Load() && (int(answered.Load())+w.wrong == w.sched.n || time.Now().After(lastDue.Add(dnsTimeout))) {
			return
		}
		_ = g.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := g.conn.Read(buf)
		if err != nil {
			continue
		}
		now := time.Now()
		if n < 2 {
			continue
		}
		id := uint16(buf[0])<<8 | uint16(buf[1])
		seq, ok := g.pending.take(id, func(seq int) bool {
			if seq >= w.sched.n {
				return false
			}
			k := keys[seq]
			return sameQuestion(buf[:n], g.stream.packets[k], g.stream.qend[k])
		})
		if !ok {
			continue // a stray: duplicate, or late for a written-off query
		}
		g.replyBytes.Add(int64(n))
		g.replies.Add(1)
		if err := g.check.check(keys[seq], id, buf[:n]); err != nil {
			w.mismatch("%v", err)
			continue
		}
		w.lat[seq] = w.sched.latency(seq, now)
		answered.Add(1)
		if rec != nil {
			rec.record("client.dns_query", 0, int64(seq), sentAt[seq], now)
		}
	}
}
