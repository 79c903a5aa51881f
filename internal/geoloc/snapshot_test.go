package geoloc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/obs"
)

// lookupKey flattens a lookup outcome into a comparable string so two
// indexes can be checked for byte-identical serving behaviour.
func lookupKey(ix *Index, host string) string {
	g, ok := ix.Lookup(host)
	if !ok {
		return "miss"
	}
	return g.Suffix + "|" + g.Hint + "|" + g.Type.String() + "|" + g.Loc.String() +
		"|" + map[bool]string{true: "learned", false: "dict"}[g.Learned]
}

func TestSnapshotDeterministic(t *testing.T) {
	res, _, _ := learnFixture(t)
	var a, b bytes.Buffer
	if err := Save(&a, res, nil); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, res, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two Saves of the same Result differ: snapshot output is not deterministic")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	res, dict, list := learnFixture(t)
	tracer := obs.New(obs.Options{})
	var buf bytes.Buffer
	if err := Save(&buf, res, tracer); err != nil {
		t.Fatal(err)
	}

	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), tracer)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NCs) != len(res.NCs) {
		t.Fatalf("round trip lost conventions: got %d, want %d", len(got.NCs), len(res.NCs))
	}
	if got.SuffixesWithGeohint != res.SuffixesWithGeohint ||
		got.RoutersWithGeohint != res.RoutersWithGeohint ||
		got.RoutersGeolocated != res.RoutersGeolocated {
		t.Fatalf("round trip lost Result totals: got %d/%d/%d, want %d/%d/%d",
			got.SuffixesWithGeohint, got.RoutersWithGeohint, got.RoutersGeolocated,
			res.SuffixesWithGeohint, res.RoutersWithGeohint, res.RoutersGeolocated)
	}

	// The snapshot-built index must serve every probe identically to the
	// index compiled straight from the pipeline's Result.
	direct, err := New(res, Options{Dict: dict, PSL: list, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := Load(bytes.NewReader(buf.Bytes()), Options{Dict: dict, PSL: list, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range probeHosts {
		if d, s := lookupKey(direct, host), lookupKey(fromSnap, host); d != s {
			t.Errorf("lookup %q diverged: direct %s, snapshot %s", host, d, s)
		}
	}

	sum := tracer.Summary()
	var names []string
	for _, row := range sum.Stages {
		names = append(names, row.Name)
	}
	for _, want := range []string{"snapshot-save", "snapshot-load"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("tracer recorded no %q span (stages: %v)", want, names)
		}
	}
}

// TestSnapshotGoldenRoundTrip drives the full committed corpus through
// learn -> Save -> Load and checks lookup equivalence over every golden
// hostname — the end-to-end guarantee the geosnap/geoserve pair relies on.
func TestSnapshotGoldenRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline run in -short mode")
	}
	in, err := LoadInputs(filepath.Join("..", "..", "testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(in, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	direct, err := New(res, Options{Dict: in.Dict, PSL: in.PSL, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := Load(bytes.NewReader(buf.Bytes()), Options{Dict: in.Dict, PSL: in.PSL, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	hosts := 0
	for _, r := range in.Corpus.Routers {
		for _, host := range r.Hostnames() {
			hosts++
			if d, s := lookupKey(direct, host), lookupKey(fromSnap, host); d != s {
				t.Errorf("lookup %q diverged: direct %s, snapshot %s", host, d, s)
			}
		}
	}
	if hosts == 0 {
		t.Fatal("golden corpus has no hostnames")
	}
}

// corruptSnapshot is a damaged snapshot and the typed error reading it
// must return.
type corruptSnapshot struct {
	name string
	data []byte
	want error
}

// snapshotCorruptions damages a Save of the learned fixture in every way
// TestSnapshotCorruption checks; FuzzSnapshot seeds from the same set.
func snapshotCorruptions(tb testing.TB) []corruptSnapshot {
	res, _, _ := learnFixture(tb)
	var buf bytes.Buffer
	if err := Save(&buf, res, nil); err != nil {
		tb.Fatal(err)
	}
	good := buf.Bytes()

	flip := func(at int) []byte {
		c := append([]byte(nil), good...)
		c[at] ^= 0x40
		return c
	}
	versioned := append([]byte(nil), good...)
	versioned[8] = 99 // version field, little-endian low byte

	return []corruptSnapshot{
		{"empty file", nil, ErrSnapshotEmpty},
		{"cut mid-magic", good[:5], ErrSnapshotTruncated},
		{"cut after magic", good[:8], ErrSnapshotTruncated},
		{"cut mid-body", good[:len(good)/2], ErrSnapshotTruncated},
		{"missing trailer", good[:len(good)-4], ErrSnapshotTruncated},
		{"short trailer", good[:len(good)-2], ErrSnapshotTruncated},
		{"foreign file", []byte("#conventions v1: not a snapshot\n"), ErrSnapshotMagic},
		{"wrong version", versioned, ErrSnapshotVersion},
		{"flipped payload byte", flip(payloadByte(tb, good)), ErrSnapshotChecksum},
		{"flipped trailer byte", flip(len(good) - 1), ErrSnapshotChecksum},
	}
}

func TestSnapshotCorruption(t *testing.T) {
	for _, tc := range snapshotCorruptions(t) {
		t.Run(tc.name, func(t *testing.T) {
			// Any panic here fails the test; corruption must always
			// surface as the matching typed error.
			res, err := ReadSnapshot(bytes.NewReader(tc.data), nil)
			if err == nil {
				t.Fatalf("corrupted snapshot decoded to %d conventions", len(res.NCs))
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestSnapshotLyingLengths feeds headers whose length fields claim far
// more data than the input holds. Decoding must fail as truncated
// without allocating what the header claims: memory is bounded by the
// bytes actually present, not by a 32-bit field an attacker controls.
func TestSnapshotLyingLengths(t *testing.T) {
	le := binary.LittleEndian
	header := func(meta []byte, metaLen uint32) []byte {
		b := append([]byte(nil), snapshotMagic[:]...)
		b = le.AppendUint32(b, SnapshotVersion)
		b = le.AppendUint32(b, metaLen)
		return append(b, meta...)
	}
	meta := []byte(`{"conventions":0,"shards":1}`)
	withMeta := header(meta, uint32(len(meta)))

	bigPayload := le.AppendUint32(append([]byte(nil), withMeta...), 1) // one section
	bigPayload = le.AppendUint32(bigPayload, 256<<20)                  // payloadLen
	bigPayload = le.AppendUint32(bigPayload, 0)                        // payloadCRC
	bigPayload = append(bigPayload, "suffix "...)

	cases := []struct {
		name string
		data []byte
	}{
		{"256 MiB metadata", header([]byte("{}"), 256<<20)},
		{"256 MiB payload", bigPayload},
		{"2^24 sections", le.AppendUint32(append([]byte(nil), withMeta...), 1<<24)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadSnapshot(bytes.NewReader(tc.data), nil)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrSnapshotTruncated) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, ErrSnapshotTruncated)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Fatalf("decoding a %d-byte input allocated %d bytes", len(tc.data), d)
			}
		})
	}
}

// FuzzSnapshot feeds arbitrary bytes to ReadSnapshot: it must never
// panic, and anything it accepts must survive Save -> ReadSnapshot ->
// Save with identical bytes. Seeds are a Save of the golden conventions
// and every TestSnapshotCorruption input.
func FuzzSnapshot(f *testing.F) {
	golden, err := os.Open(filepath.Join("..", "..", "testdata", "golden", "conventions.txt"))
	if err != nil {
		f.Fatal(err)
	}
	res, err := core.ReadConventions(golden)
	golden.Close()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, res, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, tc := range snapshotCorruptions(f) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadSnapshot(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Save(&first, res, nil); err != nil {
			t.Fatalf("accepted snapshot does not save: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(first.Bytes()), nil)
		if err != nil {
			t.Fatalf("re-saved snapshot does not decode: %v", err)
		}
		if err := Save(&second, again, nil); err != nil {
			t.Fatalf("re-decoded snapshot does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save is not stable across a round trip: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}

// payloadByte locates the first byte inside a non-empty section payload,
// so the flipped-byte case corrupts conventions text rather than framing.
func payloadByte(t testing.TB, snap []byte) int {
	t.Helper()
	le := binary.LittleEndian
	off := 8 + 4 // magic + version
	metaLen := int(le.Uint32(snap[off:]))
	off += 4 + metaLen
	sections := int(le.Uint32(snap[off:]))
	off += 4
	for i := 0; i < sections; i++ {
		payloadLen := int(le.Uint32(snap[off:]))
		off += 8 // length + CRC
		if payloadLen > 0 {
			return off
		}
	}
	t.Fatal("snapshot has no non-empty section to corrupt")
	return 0
}

func TestSnapshotNilResult(t *testing.T) {
	if err := Save(&bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("Save(nil) should error")
	}
}
