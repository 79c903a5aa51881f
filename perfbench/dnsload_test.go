package main

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/dnsserve"
	"hoiho/internal/geoloc"
)

// testConventions is one convention with a learned hint: "ash" means
// Ashburn. wrongConventions serves the same names but resolves "ash" to
// Nashua, so every answer about an ash router is wrong.
const testConventions = `suffix he.net good tp=16 fp=0 fn=0 unk=0 hints=5
regex iata hint ^.+\.core\d+\.([a-z]{3})\d+\.he\.net$
learned iata ash 39.0437 -77.4875 ashburn|va|us tp=4 fp=0 collide=false
`

var wrongConventions = strings.Replace(testConventions,
	"ash 39.0437 -77.4875 ashburn|va|us", "ash 42.7654 -71.4676 nashua|nh|us", 1)

var testNames = []string{"xe-1.core9.ash1.he.net", "xe-2.core1.lhr2.he.net", "ae-3.core4.fra1.he.net"}

func testIndex(t testing.TB, conventions string) *geoloc.Index {
	t.Helper()
	res, err := core.ReadConventions(strings.NewReader(conventions))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geoloc.New(res, geoloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range testNames {
		if _, ok := ix.Lookup(h); !ok {
			t.Fatalf("%s is not located by the test conventions", h)
		}
	}
	return ix
}

func testStream(t testing.TB, seed int64, ix *geoloc.Index) *dnsStream {
	t.Helper()
	s, err := newDNSStream(seed, testNames, nxNames(ix, 3))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSameSeedSameQueryStream(t *testing.T) {
	ix := testIndex(t, testConventions)
	wire := func(seed int64) []byte {
		s := testStream(t, seed, ix)
		var b bytes.Buffer
		for _, k := range s.take(5000) {
			b.Write(s.packets[k])
		}
		return b.Bytes()
	}
	a, b := wire(7), wire(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different query streams")
	}
	if bytes.Equal(a, wire(8)) {
		t.Fatal("different seeds produced the same query stream")
	}

	all := []string{"a.example.net", "b.example.net", "c.example.net", "d.example.net"}
	h1, err := newHTTPBatches(7, all)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := newHTTPBatches(7, all)
	if !bytes.Equal(bytes.Join(h1.bodies, nil), bytes.Join(h2.bodies, nil)) {
		t.Fatal("the same seed produced different HTTP batches")
	}
}

func TestQueryMix(t *testing.T) {
	ix := testIndex(t, testConventions)
	s := testStream(t, 1, ix)
	counts := make(map[string]int)
	const n = 20000
	for _, k := range s.take(n) {
		key := s.keys[k]
		if int(k) >= 3*s.pool {
			counts["nx"]++
		} else {
			counts[key.qtype.String()]++
		}
	}
	for typ, want := range map[string]float64{"TXT": 0.80, "LOC": 0.10, "PTR": 0.05, "nx": 0.05} {
		if got := float64(counts[typ]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("%s share %.3f, want %.2f", typ, got, want)
		}
	}
}

func TestPendingMatchByID(t *testing.T) {
	var p pendingTable
	yes := func(int) bool { return true }
	id0, ev := p.send(0)
	id1, _ := p.send(1)
	if ev != -1 || id1 != id0+1 {
		t.Fatalf("ids %d, %d, evicted %d", id0, id1, ev)
	}
	if seq, ok := p.take(id1, yes); !ok || seq != 1 {
		t.Fatalf("reply to id %d matched %d, %v", id1, seq, ok)
	}
	if _, ok := p.take(id1, yes); ok {
		t.Fatal("a duplicate reply matched twice")
	}
	if _, ok := p.take(id0+2, yes); ok {
		t.Fatal("a reply to an ID never sent matched")
	}
	// A reply the caller rejects (wrong question) leaves the slot.
	if _, ok := p.take(id0, func(int) bool { return false }); ok {
		t.Fatal("rejected reply matched")
	}
	if seq, ok := p.take(id0, yes); !ok || seq != 0 {
		t.Fatal("slot lost after a rejected reply")
	}
}

func TestPendingWraparound(t *testing.T) {
	var p pendingTable
	// Query 0 is never answered. 65536 sends later its ID comes round
	// again: the slot is evicted (query 0 is lost) and now belongs to
	// query 65536.
	first, _ := p.send(0)
	for i := 1; i < 1<<16; i++ {
		id, _ := p.send(i)
		if _, ok := p.take(id, func(int) bool { return true }); !ok {
			t.Fatalf("query %d not matched", i)
		}
	}
	id, evicted := p.send(1 << 16)
	if id != first || evicted != 0 {
		t.Fatalf("wrapped id %d evicted %d, want id %d evicting query 0", id, evicted, first)
	}
	// The late reply to query 0 carries the reused ID but query 0's
	// question; the caller's question check rejects it.
	lateIsFor := 0
	if _, ok := p.take(id, func(seq int) bool { return seq == lateIsFor }); ok {
		t.Fatal("a late reply to an evicted query matched its successor")
	}
	if seq, ok := p.take(id, func(seq int) bool { return seq == 1<<16 }); !ok || seq != 1<<16 {
		t.Fatalf("the successor's own reply matched %d, %v", seq, ok)
	}
}

func TestQuestionEcho(t *testing.T) {
	ix := testIndex(t, testConventions)
	s := testStream(t, 1, ix)
	srv := dnsserve.New(ix, dnsserve.Config{})
	for k, pkt := range s.packets {
		reply := srv.HandlePacket(pkt, netip.MustParseAddr("127.0.0.1"), false)
		if !sameQuestion(reply, pkt, s.qend[k]) {
			t.Fatalf("reply to %s does not echo its question", s.keys[k].name)
		}
		other := s.packets[(k+1)%len(s.packets)]
		if sameQuestion(reply, other, s.qend[(k+1)%len(s.packets)]) {
			t.Fatalf("reply to %s matched another question", s.keys[k].name)
		}
	}
}

// serveUDP runs an in-process DNS server over ix on a loopback port.
func serveUDP(t *testing.T, ix *geoloc.Index) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := dnsserve.New(ix, dnsserve.Config{}).ServeUDP(ctx, conn); err != nil {
			t.Error(err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		conn.Close()
	})
	return conn.LocalAddr().String()
}

// runAgainst drives one open-loop window against a server over served
// and checks the answers against the test oracle.
func runAgainst(t *testing.T, served string) *window {
	t.Helper()
	oracle := testIndex(t, testConventions)
	s := testStream(t, 3, oracle)
	gen, err := newUDPGen(serveUDP(t, testIndex(t, served)), s, newDNSChecker(oracle, s.keys))
	if err != nil {
		t.Fatal(err)
	}
	defer gen.close()
	sched := newSchedule(time.Now().Add(5*time.Millisecond), 2000, 250*time.Millisecond)
	return gen.run(sched, s.take(sched.n), nil)
}

func TestCorrectAnswersPass(t *testing.T) {
	w := runAgainst(t, testConventions)
	if w.wrong != 0 || w.lost != 0 {
		t.Fatalf("%d wrong, %d lost: %v", w.wrong, w.lost, w.errs)
	}
	if len(w.answered()) != w.sched.n {
		t.Fatalf("%d of %d answered", len(w.answered()), w.sched.n)
	}
}

func TestInjectedWrongAnswerFailsRun(t *testing.T) {
	w := runAgainst(t, wrongConventions)
	if w.wrong == 0 {
		t.Fatal("a server answering Nashua for Ashburn passed the oracle")
	}
	if !strings.Contains(strings.Join(w.errs, "\n"), "nashua") {
		t.Errorf("mismatch report does not name the wrong answer: %v", w.errs)
	}
	if ok, _ := w.meets(time.Hour); ok {
		t.Error("a window with wrong answers met the SLO")
	}
	out := newOutcome()
	out.attempted, out.failed, out.wrong = int64(w.sched.n), int64(w.failed()), int64(w.wrong)
	res, err := assemble([]string{"dns-hot"}, []*outcome{out}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("result with wrong answers: correct=%v failed=%d", res.Correct, res.Failed)
	}
}
