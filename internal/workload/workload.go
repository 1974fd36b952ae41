// Package workload generates the synthetic databases the experiments run
// on. The paper's evaluation substrate was live systems we cannot access —
// the 1997 IMDb web database behind Figure 1 [23], the Web itself, and the
// ACeDB biological database [36] — so each generator reproduces the
// *structural* property the paper uses the source for:
//
//   - Movies: Figure 1 at scale — mostly-regular entries with the two cast
//     representations (integer-indexed vs Credit.Actors), occasional
//     TV-Shows, and References edges that create cross-entry links and
//     cycles ("Is referenced in").
//   - Web: a page/link graph with no schema at all and heavy-tailed
//     out-degree (preferential attachment), for reachability and datalog
//     workloads.
//   - ACeDB: trees of arbitrary depth — the structure the paper says
//     "cannot be queried using conventional techniques".
//   - Relational: movie/director tables for the encoding equivalence
//     experiment (E5).
//
// All generators are deterministic in their Seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/relstore"
	"repro/internal/ssd"
)

// Fig1 returns the exact database of the paper's Figure 1 (with the
// "egregious error" in the Bacall edge corrected, as the paper's UnQL
// example does, unless keepError is true).
func Fig1(keepError bool) *ssd.Graph {
	bacall := "Bacall"
	if keepError {
		bacall = "Bacal" // the figure's misspelled edge label
	}
	src := fmt.Sprintf(`
	{Entry: #e1{Movie: {Title: "Casablanca",
	                    Cast: {1: "Bogart", 2: %q},
	                    Director: {"Curtiz"}}},
	 Entry: #e2{Movie: {Title: "Play it again, Sam",
	                    Cast: {Credit: {Actors: {"Allen"}}},
	                    Director: {"Allen"},
	                    References: #e1}},
	 Entry: {TV-Show: {Title: "Bogart retrospective",
	                   Cast: {Special-Guests: {"Bacall"}},
	                   Episode: 1200000}}}`, bacall)
	return ssd.MustParse(src)
}

var (
	firstNames = []string{"Humphrey", "Lauren", "Woody", "Ingrid", "Peter", "Diane", "Michael", "Grace", "Orson", "Bette"}
	lastNames  = []string{"Bogart", "Bacall", "Allen", "Bergman", "Lorre", "Keaton", "Curtiz", "Kelly", "Welles", "Davis"}
	titleWords = []string{"Casablanca", "Sleeper", "Manhattan", "Notorious", "Vertigo", "Laura", "Gilda", "Rebecca", "Suspicion", "Charade"}
)

// MovieConfig sizes the Figure-1-style generator.
type MovieConfig struct {
	Entries     int     // number of Entry edges
	TVShowRatio float64 // fraction of entries that are TV shows
	CreditRatio float64 // fraction of movie casts using the Credit.Actors form
	RefProb     float64 // probability an entry References an earlier one
	MaxCast     int     // cast members per production (≥1)
	Seed        int64
}

// DefaultMovieConfig returns a config matching Figure 1's flavour at the
// given scale.
func DefaultMovieConfig(entries int) MovieConfig {
	return MovieConfig{
		Entries:     entries,
		TVShowRatio: 0.2,
		CreditRatio: 0.3,
		RefProb:     0.25,
		MaxCast:     4,
		Seed:        1,
	}
}

// Movies generates the scalable Figure-1 database.
func Movies(cfg MovieConfig) *ssd.Graph {
	if cfg.MaxCast < 1 {
		cfg.MaxCast = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := ssd.NewWithCapacity(cfg.Entries * 12)
	var entryNodes []ssd.NodeID
	for i := 0; i < cfg.Entries; i++ {
		entry := g.AddLeaf(g.Root(), ssd.Sym("Entry"))
		entryNodes = append(entryNodes, entry)
		isTV := rng.Float64() < cfg.TVShowRatio
		kind := "Movie"
		if isTV {
			kind = "TV-Show"
		}
		prod := g.AddLeaf(entry, ssd.Sym(kind))
		title := g.AddLeaf(prod, ssd.Sym("Title"))
		g.AddLeaf(title, ssd.Str(fmt.Sprintf("%s %d", titleWords[rng.Intn(len(titleWords))], i)))
		cast := g.AddLeaf(prod, ssd.Sym("Cast"))
		n := 1 + rng.Intn(cfg.MaxCast)
		if isTV {
			guests := g.AddLeaf(cast, ssd.Sym("Special-Guests"))
			for j := 0; j < n; j++ {
				g.AddLeaf(guests, ssd.Str(lastNames[rng.Intn(len(lastNames))]))
			}
			ep := g.AddLeaf(prod, ssd.Sym("Episode"))
			g.AddLeaf(ep, ssd.Int(int64(rng.Intn(2_000_000))))
		} else {
			// The Figure 1 irregularity: two representations of a cast.
			if rng.Float64() < cfg.CreditRatio {
				credit := g.AddLeaf(cast, ssd.Sym("Credit"))
				actors := g.AddLeaf(credit, ssd.Sym("Actors"))
				for j := 0; j < n; j++ {
					g.AddLeaf(actors, ssd.Str(lastNames[rng.Intn(len(lastNames))]))
				}
			} else {
				for j := 0; j < n; j++ {
					member := g.AddLeaf(cast, ssd.Int(int64(j+1)))
					g.AddLeaf(member, ssd.Str(lastNames[rng.Intn(len(lastNames))]))
				}
			}
			director := g.AddLeaf(prod, ssd.Sym("Director"))
			g.AddLeaf(director, ssd.Str(lastNames[rng.Intn(len(lastNames))]))
		}
		// Cross-entry references, including back-links that form cycles.
		if i > 0 && rng.Float64() < cfg.RefProb {
			target := entryNodes[rng.Intn(i)]
			g.AddEdge(prod, ssd.Sym("References"), target)
			if rng.Float64() < 0.5 {
				back := g.LookupFirst(target, ssd.Sym("Movie"))
				if back == ssd.InvalidNode {
					back = g.LookupFirst(target, ssd.Sym("TV-Show"))
				}
				if back != ssd.InvalidNode {
					g.AddEdge(back, ssd.Sym("Is-referenced-in"), entry)
				}
			}
		}
	}
	return g
}

// SkewConfig sizes the skewed-selectivity generator.
type SkewConfig struct {
	Entries         int // number of Entry.Movie edges
	TagsPerMovie    int // Tag edges per movie (≥1)
	ReviewsPerMovie int // Reviews.Score leaves per movie (≥1)
	NeedleEvery     int // every n-th movie carries the rare "needle" tag
	Seed            int64
}

// DefaultSkewConfig returns a skew profile where Tag equality is far more
// selective than the Reviews fan-out.
func DefaultSkewConfig(entries int) SkewConfig {
	return SkewConfig{
		Entries:         entries,
		TagsPerMovie:    3,
		ReviewsPerMovie: 8,
		NeedleEvery:     100,
		Seed:            1,
	}
}

// Skewed generates a database whose label cardinalities are deliberately
// lopsided, so that a statistics-fed planner orders atoms differently from
// one fed only label counts. Every movie has one Title, a handful of Tag
// values drawn from a tiny popular set (with a rare "needle" value every
// NeedleEvery-th movie), and a wide Reviews subtree of integer Scores:
//
//	root –Entry→ e –Movie→ m
//	m –Title→ t → "..."            (1 per movie)
//	m –Tag→ x → "popular"|"needle" (TagsPerMovie per movie, needle rare)
//	m –Reviews→ r –Score→ s → int  (ReviewsPerMovie per movie)
//
// Label counts alone say little about Tag and Score values; the statistics
// know `Tag = "needle"` matches almost nothing while `Score > 0` matches
// everything.
func Skewed(cfg SkewConfig) *ssd.Graph {
	if cfg.TagsPerMovie < 1 {
		cfg.TagsPerMovie = 1
	}
	if cfg.ReviewsPerMovie < 1 {
		cfg.ReviewsPerMovie = 1
	}
	if cfg.NeedleEvery < 1 {
		cfg.NeedleEvery = 1
	}
	popular := []string{
		"drama", "comedy", "noir", "western", "musical", "thriller",
		"romance", "war", "silent", "serial", "short", "documentary",
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := ssd.NewWithCapacity(cfg.Entries * (4 + cfg.TagsPerMovie*2 + cfg.ReviewsPerMovie*3))
	for i := 0; i < cfg.Entries; i++ {
		entry := g.AddLeaf(g.Root(), ssd.Sym("Entry"))
		m := g.AddLeaf(entry, ssd.Sym("Movie"))
		title := g.AddLeaf(m, ssd.Sym("Title"))
		g.AddLeaf(title, ssd.Str(fmt.Sprintf("%s %d", titleWords[rng.Intn(len(titleWords))], i)))
		for j := 0; j < cfg.TagsPerMovie; j++ {
			tag := g.AddLeaf(m, ssd.Sym("Tag"))
			v := popular[rng.Intn(len(popular))]
			if j == 0 && i%cfg.NeedleEvery == 0 {
				v = "needle"
			}
			g.AddLeaf(tag, ssd.Str(v))
		}
		reviews := g.AddLeaf(m, ssd.Sym("Reviews"))
		for j := 0; j < cfg.ReviewsPerMovie; j++ {
			score := g.AddLeaf(reviews, ssd.Sym("Score"))
			g.AddLeaf(score, ssd.Int(int64(1+rng.Intn(10))))
		}
	}
	return g
}

// WebConfig sizes the web-graph generator.
type WebConfig struct {
	Pages    int
	OutLinks int // average out-degree
	Seed     int64
}

// Web generates a schema-less page/link graph with preferential attachment,
// modeling "data sources such as the Web, which we would like to treat as
// databases but which cannot be constrained by a schema" (§1.1). Every page
// has a url and a title; ~half have a modified date; link targets follow a
// heavy-tailed popularity distribution.
func Web(cfg WebConfig) *ssd.Graph {
	if cfg.OutLinks < 1 {
		cfg.OutLinks = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := ssd.NewWithCapacity(cfg.Pages * 5)
	pages := make([]ssd.NodeID, cfg.Pages)
	// popularity holds one entry per received link for preferential
	// attachment; seeded with each page once.
	popularity := make([]int, 0, cfg.Pages*(cfg.OutLinks+1))
	for i := range pages {
		pages[i] = g.AddLeaf(g.Root(), ssd.Sym("Page"))
		url := g.AddLeaf(pages[i], ssd.Sym("url"))
		g.AddLeaf(url, ssd.Str(fmt.Sprintf("http://site%d.example/p%d", i%97, i)))
		ti := g.AddLeaf(pages[i], ssd.Sym("title"))
		g.AddLeaf(ti, ssd.Str(fmt.Sprintf("page %d about %s", i, titleWords[rng.Intn(len(titleWords))])))
		if rng.Intn(2) == 0 {
			mod := g.AddLeaf(pages[i], ssd.Sym("modified"))
			g.AddLeaf(mod, ssd.Int(int64(800000000+rng.Intn(60000000))))
		}
		popularity = append(popularity, i)
	}
	for i := range pages {
		// Out-degree 0..2*OutLinks-1: some pages are dead ends, like the
		// real web.
		n := rng.Intn(cfg.OutLinks * 2)
		for j := 0; j < n; j++ {
			target := popularity[rng.Intn(len(popularity))]
			g.AddEdge(pages[i], ssd.Sym("link"), pages[target])
			popularity = append(popularity, target)
		}
	}
	return g
}

// BioConfig sizes the ACeDB-style generator.
type BioConfig struct {
	Objects  int // top-level objects
	MaxDepth int // maximum nesting depth (trees of arbitrary depth)
	Fanout   int
	Seed     int64
}

// ACeDB generates deep, ragged trees in the style of the C. elegans
// database §1.1 describes: a loose schema, trees of arbitrary depth, and
// fields that may or may not be present.
func ACeDB(cfg BioConfig) *ssd.Graph {
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 1
	}
	if cfg.Fanout < 1 {
		cfg.Fanout = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := ssd.New()
	fields := []string{"Gene", "Locus", "Clone", "Map", "Position", "Author", "Paper", "Remark", "Contains"}
	var grow func(n ssd.NodeID, depth int)
	grow = func(n ssd.NodeID, depth int) {
		if depth >= cfg.MaxDepth {
			g.AddLeaf(n, ssd.Str(fmt.Sprintf("leaf-%d", rng.Intn(1000))))
			return
		}
		k := 1 + rng.Intn(cfg.Fanout)
		for i := 0; i < k; i++ {
			child := g.AddLeaf(n, ssd.Sym(fields[rng.Intn(len(fields))]))
			switch rng.Intn(4) {
			case 0:
				// Terminate early with an int value: raggedness.
				g.AddLeaf(child, ssd.Int(int64(rng.Intn(100000))))
			case 1:
				g.AddLeaf(child, ssd.Str(fmt.Sprintf("val-%d", rng.Intn(1000))))
			default:
				grow(child, depth+1)
			}
		}
	}
	for i := 0; i < cfg.Objects; i++ {
		obj := g.AddLeaf(g.Root(), ssd.Sym("Object"))
		name := g.AddLeaf(obj, ssd.Sym("Name"))
		g.AddLeaf(name, ssd.Str(fmt.Sprintf("obj-%d", i)))
		grow(obj, 1)
	}
	return g
}

// Relational generates movie/director tables for experiment E5.
func Relational(nMovies, nDirectors int, seed int64) relstore.Database {
	rng := rand.New(rand.NewSource(seed))
	directors := relstore.NewRelation("director", "born")
	dnames := make([]string, 0, nDirectors)
	for i := 0; i < nDirectors; i++ {
		// The first few directors carry plain surnames so the relational
		// data overlaps with the semistructured movie generator — the
		// integration example joins across the two sources on these.
		name := lastNames[i%len(lastNames)]
		if i >= len(lastNames) {
			name = fmt.Sprintf("%s %s %d", firstNames[rng.Intn(len(firstNames))], name, i)
		}
		dnames = append(dnames, name)
		directors.Add(ssd.Str(name), ssd.Int(int64(1880+rng.Intn(80))))
	}
	movies := relstore.NewRelation("title", "year", "director")
	for i := 0; i < nMovies; i++ {
		movies.Add(
			ssd.Str(fmt.Sprintf("%s %d", titleWords[rng.Intn(len(titleWords))], i)),
			ssd.Int(int64(1920+rng.Intn(60))),
			ssd.Str(dnames[rng.Intn(len(dnames))]),
		)
	}
	return relstore.Database{"movies": movies, "directors": directors}
}
