package dnsserve

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/dnswire"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/qlog"
)

// Wire limits and loop timings. The read deadlines exist so the serve
// loops notice context cancellation; they are polls, not per-client
// timeouts.
const (
	minUDPSize     = 512  // RFC 1035 floor; never negotiate below
	defaultUDPSize = 1232 // fits any unfragmented path, EDNS default
	pollInterval   = 250 * time.Millisecond
	tcpIdleTimeout = 10 * time.Second // per-read deadline on an open TCP conn
)

// queryStage is the tracer stage every handled packet records under;
// Stats reads its counters back.
const queryStage = "dnsquery"

// Config tunes a Server. The zero value serves with defaults: TTL 300,
// UDP payload 1232, rate limiting off.
type Config struct {
	// TTL is the time-to-live stamped on every answer record.
	TTL uint32
	// UDPSize is the largest UDP payload the server is willing to
	// send; the effective limit per query also honors what the client
	// advertised (never below the 512-byte RFC 1035 floor).
	UDPSize uint16
	// Rate and Burst meter queries per source address: Rate tokens per
	// second with Burst headroom. Rate 0 disables limiting.
	Rate  float64
	Burst float64
	// Tracer records per-query spans and counters; nil is inert.
	Tracer *obs.Tracer
	// QueryLog, when non-nil, receives one sampled JSONL record per
	// handled packet; its request id is also stamped on the query span.
	// Nil (the zero value) disables logging at zero cost.
	QueryLog *qlog.Logger
}

// ednsBounds are the histogram bands for negotiated UDP response
// limits: the RFC 1035 floor, the unfragmented-path EDNS default, and
// a large-advertisement band; sizes above fall in +Inf. An array, not
// a slice, so the Server's counter block can size itself from it.
var ednsBounds = [3]float64{512, 1232, 4096}

// Server answers DNS queries about router hostnames from a live geoloc
// index. One Server may serve UDP and TCP concurrently; every packet
// is handled against a single index generation even while a reload of
// Live swaps a new one in.
type Server struct {
	cfg     Config
	live    *geoloc.Live
	limiter *limiter
	tracer  *obs.Tracer
	qlog    *qlog.Logger

	// Negotiated UDP response-size histogram: per-band observation
	// counts over ednsBounds (last slot is +Inf) and a byte sum.
	ednsCounts [len(ednsBounds) + 1]atomic.Int64
	ednsSum    atomic.Int64
}

// New builds a Server over the given index.
func New(ix *geoloc.Index, cfg Config) *Server {
	if cfg.TTL == 0 {
		cfg.TTL = 300
	}
	if cfg.UDPSize == 0 {
		cfg.UDPSize = defaultUDPSize
	}
	if cfg.UDPSize < minUDPSize {
		cfg.UDPSize = minUDPSize
	}
	return &Server{
		cfg:     cfg,
		live:    geoloc.NewLive(ix),
		limiter: newLimiter(cfg.Rate, cfg.Burst),
		tracer:  cfg.Tracer,
		qlog:    cfg.QueryLog,
	}
}

// Live returns the swappable index the server answers from; reload it
// to serve a new generation.
func (s *Server) Live() *geoloc.Live { return s.live }

// Stats snapshots the per-query counters accumulated so far.
func (s *Server) Stats() map[string]int64 { return s.tracer.StageCounters(queryStage) }

// LimiterEvictions reports buckets dropped by capacity sweeps; zero
// when rate limiting is disabled.
func (s *Server) LimiterEvictions() uint64 { return s.limiter.evictions() }

// EDNSSizes snapshots the negotiated UDP response-size histogram:
// per-band observation counts over bounds (one extra +Inf band at the
// end) and the cumulative byte sum. TCP queries are not observed —
// they carry no negotiated limit.
func (s *Server) EDNSSizes() (bounds []float64, counts []int64, sumBytes int64) {
	counts = make([]int64, len(s.ednsCounts))
	for i := range s.ednsCounts {
		counts[i] = s.ednsCounts[i].Load()
	}
	return ednsBounds[:], counts, s.ednsSum.Load()
}

// observeUDPLimit records one negotiated response limit.
func (s *Server) observeUDPLimit(limit int) {
	band := len(ednsBounds)
	for i, b := range ednsBounds {
		if float64(limit) <= b {
			band = i
			break
		}
	}
	s.ednsCounts[band].Add(1)
	s.ednsSum.Add(int64(limit))
}

// HandlePacket answers one DNS message and returns the response frame,
// or nil when the input merits no reply (a frame too short to echo, or
// an inbound response message). src meters the rate limit; tcp lifts
// the UDP size limit. It never panics: a handler bug maps to SERVFAIL,
// mirroring the HTTP front end's 500 envelope.
func (s *Server) HandlePacket(pkt []byte, src netip.Addr, tcp bool) (out []byte) {
	sp := s.tracer.Start(queryStage)
	defer sp.End()
	sp.Count("queries", 1)

	// Query-log setup. A nil logger returns an empty id, and the whole
	// record path stays allocation-free; with logging on, the record is
	// filled as the outcome is decided and written by the same deferred
	// function that converts panics to SERVFAIL, so a crashed handler
	// still logs its query.
	qr := qlog.Record{Front: "dns"}
	var t0 time.Time
	if id := s.qlog.NextID(); id != "" {
		qr.ID = id
		sp.SetAttr("request_id", id)
		if src.IsValid() {
			qr.Source = src.String()
		}
		t0 = time.Now()
	}
	defer func() {
		if recover() != nil {
			sp.Count("servfail", 1)
			qr.Outcome = "servfail"
			qr.Status = int(dnswire.RCodeServFail)
			out = rawReply(pkt, dnswire.RCodeServFail)
		}
		if qr.ID != "" {
			qr.DurUS = int64(time.Since(t0) / time.Microsecond)
			qr.Generation = s.live.Generation()
			s.qlog.Log(qr)
		}
	}()

	// Rate limiting happens before parsing: shedding load must not
	// cost a message decode per flooded packet.
	if !s.limiter.allow(src) {
		sp.Count("refused", 1)
		qr.Outcome = "refused"
		qr.Status = int(dnswire.RCodeRefused)
		return rawReply(pkt, dnswire.RCodeRefused)
	}

	q, err := dnswire.Unpack(pkt)
	if err != nil {
		sp.Count("formerr", 1)
		qr.Outcome = "formerr"
		qr.Status = int(dnswire.RCodeFormErr)
		return rawReply(pkt, dnswire.RCodeFormErr)
	}
	if q.Response {
		sp.Count("dropped", 1)
		qr.Outcome = "dropped"
		return nil // a response sent at a server is noise, not a query
	}
	if qr.ID != "" && len(q.Questions) > 0 {
		qr.Hostname = q.Questions[0].Name
		qr.Op = q.Questions[0].Type.String()
	}

	r := dnswire.Reply(q)
	r.Authoritative = true
	if q.EDNS != nil {
		r.EDNS = &dnswire.EDNS{UDPSize: s.cfg.UDPSize}
	}

	switch {
	case q.Opcode != dnswire.OpcodeQuery:
		sp.Count("notimp", 1)
		qr.Outcome = "notimp"
		r.RCode = dnswire.RCodeNotImp
	case q.EDNS != nil && q.EDNS.Version > 0:
		sp.Count("badvers", 1)
		qr.Outcome = "badvers"
		r.RCode = dnswire.RCodeBadVers
	case len(q.Questions) != 1:
		sp.Count("formerr", 1)
		qr.Outcome = "formerr"
		r.RCode = dnswire.RCodeFormErr
	case q.Questions[0].Class != dnswire.ClassINET && q.Questions[0].Class != dnswire.ClassANY:
		sp.Count("notimp", 1)
		qr.Outcome = "notimp"
		r.RCode = dnswire.RCodeNotImp
	default:
		qr.Outcome = s.answer(r, q.Questions[0], sp)
	}
	qr.Status = int(r.RCode)

	limit := dnswire.MaxMessageLen
	if !tcp {
		limit = s.udpLimit(q)
		s.observeUDPLimit(limit)
	}
	out, err = r.PackTruncated(limit)
	if err != nil {
		// The question alone does not fit the negotiated size; answer
		// with a header-only SERVFAIL rather than silence.
		sp.Count("servfail", 1)
		qr.Outcome = "servfail"
		qr.Status = int(dnswire.RCodeServFail)
		return rawReply(pkt, dnswire.RCodeServFail)
	}
	return out
}

// udpLimit negotiates the response size: the smaller of what the
// client advertised and what the server allows, never below 512.
func (s *Server) udpLimit(q *dnswire.Message) int {
	limit := int(s.cfg.UDPSize)
	if q.EDNS != nil && int(q.EDNS.UDPSize) < limit {
		limit = int(q.EDNS.UDPSize)
	}
	if limit < minUDPSize {
		limit = minUDPSize
	}
	return limit
}

// answer resolves one question against the live index and fills the
// response: TXT carries the key=value geolocation detail, PTR a
// location-encoding target name, LOC the coordinates, ANY all of
// them. A located name asked an unsupported type gets an empty
// authoritative NOERROR (NODATA); an unlocated name gets NXDOMAIN.
// The returned outcome names the counter it incremented, for the
// query-log record.
func (s *Server) answer(r *dnswire.Message, question dnswire.Question, sp *obs.Span) string {
	sp.SetKey(question.Type.String())
	g, ok := s.live.Index().Lookup(question.Name)
	if !ok || g.Loc == nil {
		sp.Count("nxdomain", 1)
		r.RCode = dnswire.RCodeNXDomain
		return "nxdomain"
	}
	wantAll := question.Type == dnswire.TypeANY
	add := func(data dnswire.RData) {
		r.Answers = append(r.Answers, dnswire.RR{
			Name:  question.Name,
			Class: dnswire.ClassINET,
			TTL:   s.cfg.TTL,
			Data:  data,
		})
	}
	if wantAll || question.Type == dnswire.TypeTXT {
		add(dnswire.TXT(geoloc.AnswerStrings(g)))
	}
	if wantAll || question.Type == dnswire.TypePTR {
		add(dnswire.PTR(geoloc.PTRTarget(g)))
	}
	if (wantAll || question.Type == dnswire.TypeLOC) && g.Loc.Pos.Valid() {
		add(dnswire.NewLOC(g.Loc.Pos.Lat, g.Loc.Pos.Long))
	}
	if len(r.Answers) == 0 {
		sp.Count("nodata", 1) // located name, unsupported type
		return "nodata"
	}
	sp.Count("noerror", 1)
	return "noerror"
}

// rawReply builds a header-only response from the raw bytes of a
// request that may not parse: ID echoed, QR set, opcode and RD bits
// carried over, all counts zero. Frames too short to even echo an ID
// get no reply at all.
func rawReply(pkt []byte, rcode dnswire.RCode) []byte {
	if len(pkt) < 4 {
		return nil
	}
	h := make([]byte, 12)
	h[0], h[1] = pkt[0], pkt[1]
	h[2] = 0x80 | pkt[2]&0x79 // QR | opcode | RD
	h[3] = byte(rcode & 0xF)
	return h
}

// ServeUDP answers queries on conn until ctx is canceled. Packets are
// handled inline — a lookup is microseconds, so per-packet goroutines
// would cost more than they buy.
func (s *Server) ServeUDP(ctx context.Context, conn *net.UDPConn) error {
	buf := make([]byte, 65536)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(pollInterval)); err != nil {
			return err
		}
		n, addr, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if resp := s.HandlePacket(buf[:n], addr.Addr(), false); resp != nil {
			if _, err := conn.WriteToUDPAddrPort(resp, addr); err != nil && ctx.Err() != nil {
				return nil
			}
		}
	}
}

// ServeTCP answers queries on ln until ctx is canceled, then waits for
// every open connection to drain before returning.
func (s *Server) ServeTCP(ctx context.Context, ln *net.TCPListener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		if err := ln.SetDeadline(time.Now().Add(pollInterval)); err != nil {
			return err
		}
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(ctx, conn)
		}()
	}
}

// serveConn handles one TCP connection: two-byte length-prefixed
// frames (RFC 1035 §4.2.2) until the peer closes, errs, idles past
// the deadline, or the server drains.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer func() {
		// A failed close on a drained conn is not actionable, but it is
		// countable: surface it in the query-stage counters.
		if err := conn.Close(); err != nil {
			sp := s.tracer.Start(queryStage)
			sp.Count("close_errors", 1)
			sp.End()
		}
	}()
	src := netip.Addr{}
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		src = ap.Addr()
	}
	var lenbuf [2]byte
	for ctx.Err() == nil {
		if err := conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
			return
		}
		if _, err := io.ReadFull(conn, lenbuf[:]); err != nil {
			return
		}
		frame := make([]byte, binary.BigEndian.Uint16(lenbuf[:]))
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		resp := s.HandlePacket(frame, src, true)
		if resp == nil {
			continue
		}
		binary.BigEndian.PutUint16(lenbuf[:], uint16(len(resp)))
		if _, err := conn.Write(lenbuf[:]); err != nil {
			return
		}
		if _, err := conn.Write(resp); err != nil {
			return
		}
	}
}
