package rex

import (
	"regexp"
	"testing"

	"hoiho/internal/geodict"
	"hoiho/internal/rexmatch"
)

// FuzzParsePattern feeds arbitrary patterns to the published-format
// parser: it must never panic, and anything it accepts must round-trip
// through String(), compile in the stdlib oracle, and get a matcher.
func FuzzParsePattern(f *testing.F) {
	f.Add(`^.+\.([a-z]{3})\d+\.alter\.net$`)
	f.Add(`^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$`)
	f.Add(`^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]+-x\.alter\.net$`)
	f.Add(`^(((`)
	f.Add(`^$`)
	f.Add(``)
	f.Add(`^([a-z]{999999})$`)
	f.Fuzz(func(t *testing.T, pattern string) {
		roles := []Role{RoleHint}
		r, err := ParsePattern(geodict.HintIATA, pattern, roles)
		if err != nil {
			return
		}
		if r.String() != pattern {
			t.Fatalf("accepted pattern does not round-trip: %q -> %q", pattern, r.String())
		}
		if _, err := regexp.Compile(r.String()); err != nil {
			t.Fatalf("accepted pattern does not compile: %q: %v", pattern, err)
		}
		if err := r.Prepare(); err != nil {
			t.Fatalf("accepted pattern has no matcher: %q: %v", pattern, err)
		}
	})
}

// fuzzLiterals is the literal-text table FuzzRegexRender draws from:
// grammar-alphabet text plus metacharacters QuoteMeta escapes, so the
// renderer's escaping path is exercised.
var fuzzLiterals = []string{"a", "ge", "xe0", "alter", "_", ".", "+", "net"}

// FuzzRegexRender drives the component-level round trip that
// FuzzParsePattern drives from the string side: arbitrary bytes are
// decoded into a component sequence, and every sequence that passes
// Validate must render to a pattern that reparses (with the same
// roles), re-renders byte-identically, compiles in the stdlib oracle,
// and gets a matcher.
func FuzzRegexRender(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x06, 0x03})                         // ([a-z]{N}) hint capture
	f.Add([]byte{0x03, 0x00, 0x01, 0x00, 0x07, 0x03}) // .+ \. ([a-z]+)
	f.Add([]byte{0x06, 0x05, 0x02, 0x00, 0x06, 0x07}) // split-CLLI pair
	f.Add([]byte{0x00, 0x0a, 0x01, 0x00, 0x00, 0x06})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := decodeRegex(data)
		if err := r.Validate(); err != nil {
			return
		}
		pattern := r.String()
		parsed, err := ParsePattern(r.Hint, pattern, r.Roles())
		if err != nil {
			t.Fatalf("valid regex %q does not reparse: %v", pattern, err)
		}
		if parsed.String() != pattern {
			t.Fatalf("round trip changed rendering: %q -> %q", pattern, parsed.String())
		}
		if len(parsed.Roles()) != len(r.Roles()) {
			t.Fatalf("round trip changed capture count: %q", pattern)
		}
		if _, err := regexp.Compile(pattern); err != nil {
			t.Fatalf("valid regex %q does not compile: %v", pattern, err)
		}
		if err := r.Prepare(); err != nil {
			t.Fatalf("valid regex %q has no matcher: %v", pattern, err)
		}
	})
}

// decodeRegex deterministically maps fuzz bytes onto a component
// sequence: two bytes per component select the kind and the
// capture/role/repeat/literal parameters, constrained to the values the
// emitted grammar can express (repeat counts 1..63, literal text from
// fuzzLiterals).
func decodeRegex(data []byte) *Regex {
	var comps []Component
	for i := 0; i+1 < len(data); i += 2 {
		kind := Kind(data[i] % 11)
		p := data[i+1]
		c := Component{Kind: kind}
		if p&1 == 1 {
			c.Capture = true
			c.Role = Role(1 + (p>>1)%5)
		}
		switch kind {
		case KindAlphaFixed:
			c.N = 1 + int(p>>2)%63
		case KindLiteral:
			c.Lit = fuzzLiterals[int(p>>1)%len(fuzzLiterals)]
		}
		comps = append(comps, c)
	}
	return New(geodict.HintIATA, comps...)
}

// FuzzMatch feeds arbitrary hostnames to a fixed regex: no panics, and
// every reported extraction must be a substring of the input.
func FuzzMatch(f *testing.F) {
	re := alterIATA()
	f.Add("0.xe-10-0-0.gw1.sfo16.alter.net")
	f.Add("")
	f.Add(".")
	f.Add("a.b.c.alter.net")
	f.Fuzz(func(t *testing.T, host string) {
		ext, ok := re.Match(host)
		if !ok {
			return
		}
		if len(ext.Hint) != 3 {
			t.Fatalf("IATA extraction %q has wrong width", ext.Hint)
		}
	})
}

// FuzzRexmatchVsStdlib is the differential oracle for the specialized
// matcher: arbitrary bytes decode into a component sequence, the
// sequence renders to the stdlib pattern, and both engines run the
// same hostname. The match verdict and every capture group must agree
// byte for byte — rexmatch implements leftmost-first submatch
// semantics, so any divergence is a bug in the specialized engine (or
// in the dialect translation), never an acceptable approximation. The
// checked-in seed corpus pins the two component shapes whose parsing
// PR 3 fixed: multi-character literal captures, and a plain literal
// followed by a captured literal (coalescing across the capture
// boundary).
func FuzzRexmatchVsStdlib(f *testing.F) {
	// {0x00, 0x33}: captured multi-char literal `^(ge)$` (RoleHint).
	f.Add([]byte{0x00, 0x33}, "ge")
	// {0x00, 0x02, 0x00, 0x33}: plain literal then captured literal,
	// `^ge(ge)$` — the coalescing shape.
	f.Add([]byte{0x00, 0x02, 0x00, 0x33}, "gege")
	// Greedy give-back across adjacent repetitions.
	f.Add([]byte{0x03, 0x00, 0x01, 0x00, 0x06, 0x07, 0x08, 0x00}, "xe-1.gw2.sfo12.net")
	f.Add([]byte{0x06, 0x05, 0x02, 0x00, 0x06, 0x07}, "abcd-ef")
	f.Add([]byte{0x00, 0x0a, 0x01, 0x00, 0x00, 0x06}, ".alter.")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, data []byte, host string) {
		r := decodeRegex(data)
		if err := r.Validate(); err != nil {
			return
		}
		prog, err := rexmatch.Compile(matcherSpecs(r.Comps))
		if err != nil {
			// rexmatch is the only engine: a valid regex it declines
			// would match nothing in production.
			t.Fatalf("rexmatch declined valid regex %q: %v", r.String(), err)
		}
		std, err := regexp.Compile(r.String())
		if err != nil {
			t.Fatalf("valid regex %q does not compile: %v", r.String(), err)
		}
		want := std.FindStringSubmatch(host)
		var res rexmatch.Result
		got := prog.Run(host, &res)
		if (want != nil) != got {
			t.Fatalf("verdict differs for %q on %q: stdlib=%v rexmatch=%v",
				r.String(), host, want != nil, got)
		}
		if !got {
			return
		}
		caps := res.Captures(nil)
		if len(caps) != len(want)-1 {
			t.Fatalf("capture count differs for %q on %q: stdlib=%d rexmatch=%d",
				r.String(), host, len(want)-1, len(caps))
		}
		for i, c := range caps {
			if c != want[i+1] {
				t.Fatalf("capture %d differs for %q on %q: stdlib=%q rexmatch=%q",
					i+1, r.String(), host, want[i+1], c)
			}
		}
	})
}
