package core

import (
	"sort"

	"hoiho/internal/geodict"
	"hoiho/internal/rex"
)

// Geolocation is the result of applying a learned naming convention to a
// hostname.
type Geolocation struct {
	Hostname string
	Suffix   string
	Hint     string
	Type     geodict.HintType
	Loc      *geodict.Location
	Learned  bool // the hint resolved through a stage-4 learned geohint
}

// Geolocate applies a naming convention to a hostname through Decide,
// resolving learned geohints by scanning the convention's Learned list.
// It serves one-off application; services applying conventions at
// volume should compile them into a geoloc.Index, which runs the same
// Decide over a precomputed learned-hint overlay.
func Geolocate(nc *NamingConvention, dict *geodict.Dictionary, host string) (*Geolocation, bool) {
	if nc == nil {
		return nil, false
	}
	g := Decide(nc, dict, host, nc.LearnedHint, nil)
	return g, g != nil
}

// LearnedHint returns the convention's first learned geohint for the
// extraction (type, hint), or nil.
func (nc *NamingConvention) LearnedHint(typ geodict.HintType, hint string) *LearnedHint {
	for _, lh := range nc.Learned {
		if lh.Type == typ && lh.Hint == hint {
			return lh
		}
	}
	return nil
}

// Resolution says how Decide interpreted one regex.
type Resolution int

const (
	// NoMatch: the regex did not match; the next regex is tried.
	NoMatch Resolution = iota
	// ResolvedLearned: the extraction resolved through a stage-4
	// learned geohint, which takes precedence over the dictionary.
	ResolvedLearned
	// ResolvedDictionary: the extraction resolved through the reference
	// dictionary, disambiguated across interpretations.
	ResolvedDictionary
	// Unresolved: the regex matched but the extraction resolved to no
	// location. The first matching regex decides, so this is a miss.
	Unresolved
)

// Step is one regex Decide tried, reported to a step recorder.
type Step struct {
	Regex      *rex.Regex
	Resolution Resolution
	Ext        rex.Extraction // zero when the regex did not match
	// Candidates counts dictionary interpretations that survived
	// annotation filtering (dictionary steps only).
	Candidates int
	Learned    *LearnedHint      // the overlay entry (learned steps only)
	Loc        *geodict.Location // the answer (resolved steps only)
}

// Decide is the paper's application rule, the one decision procedure
// behind Geolocate, geoloc lookups and explanations: the convention's
// regexes are tried in order and the first that matches decides. Its
// extraction resolves first through learned (the learned-geohint
// lookup) and then through the dictionary, disambiguating multiple
// interpretations by facility presence and population (the paper's
// ranking for learned hints, which Lakhina et al.'s population-density
// observation motivates); an extraction that resolves to no location is
// a miss, not a fall-through to later regexes. rec, when non-nil,
// receives every regex tried; a nil rec costs nothing. The result is nil
// on a miss.
func Decide(nc *NamingConvention, dict *geodict.Dictionary, host string,
	learned func(geodict.HintType, string) *LearnedHint, rec func(Step)) *Geolocation {
	for _, r := range nc.Regexes {
		ext, ok := r.Match(host)
		if !ok {
			if rec != nil {
				rec(Step{Regex: r})
			}
			continue
		}
		st := Step{Regex: r, Resolution: Unresolved, Ext: ext, Learned: learned(ext.Type, ext.Hint)}
		if st.Learned != nil {
			st.Resolution, st.Loc = ResolvedLearned, st.Learned.Loc
		} else if locs := DictionaryLocations(dict, ext); len(locs) > 0 {
			st.Resolution, st.Candidates, st.Loc = ResolvedDictionary, len(locs), PickLocation(dict, locs)
		}
		if rec != nil {
			rec(st)
		}
		if st.Resolution == Unresolved {
			return nil
		}
		return &Geolocation{
			Hostname: host, Suffix: nc.Suffix, Hint: ext.Hint, Type: ext.Type,
			Loc: st.Loc, Learned: st.Learned != nil,
		}
	}
	return nil
}

// DictionaryLocations resolves an extraction against the reference
// dictionary, filtered by any annotation codes.
func DictionaryLocations(d *geodict.Dictionary, ext rex.Extraction) []*geodict.Location {
	var locs []*geodict.Location
	switch ext.Type {
	case geodict.HintIATA:
		for _, a := range d.IATA(ext.Hint) {
			loc := a.Loc
			locs = append(locs, &loc)
		}
	case geodict.HintICAO:
		if a := d.ICAO(ext.Hint); a != nil {
			loc := a.Loc
			locs = append(locs, &loc)
		}
	case geodict.HintLocode:
		if c := d.Locode(ext.Hint); c != nil {
			loc := c.Loc
			locs = append(locs, &loc)
		}
	case geodict.HintCLLI:
		if c := d.CLLI(ext.Hint); c != nil {
			loc := c.Loc
			locs = append(locs, &loc)
		}
	case geodict.HintPlace:
		locs = append(locs, d.Place(ext.Hint)...)
	case geodict.HintFacility:
		for _, f := range d.FacilityByAddress(ext.Hint) {
			loc := f.Loc
			locs = append(locs, &loc)
		}
	}
	out := locs[:0]
	for _, loc := range locs {
		if ext.Country != "" && !d.CountryEquivalent(ext.Country, loc.Country) {
			continue
		}
		if ext.State != "" && !d.StateEquivalent(ext.State, loc.Country, loc.Region) {
			continue
		}
		out = append(out, loc)
	}
	return out
}

// PickLocation disambiguates multiple interpretations: facility presence
// first, then population, then a stable key order.
func PickLocation(d *geodict.Dictionary, locs []*geodict.Location) *geodict.Location {
	if len(locs) == 1 {
		return locs[0]
	}
	sorted := append([]*geodict.Location(nil), locs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		af := d.HasFacility(a.City, a.Region, a.Country)
		bf := d.HasFacility(b.City, b.Region, b.Country)
		if af != bf {
			return af
		}
		if a.Population != b.Population {
			return a.Population > b.Population
		}
		return a.Key() < b.Key()
	})
	return sorted[0]
}
