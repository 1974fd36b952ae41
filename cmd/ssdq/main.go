// Command ssdq is the interactive face of the library: it loads a
// semistructured database (text .ssd or binary .ssdg) and runs queries
// against it.
//
// Usage:
//
//	ssdq -db file.ssd stats
//	ssdq -db file.ssd query  'select T from DB.Entry.Movie.Title T'
//	ssdq -db file.ssd explain 'select T from DB.Entry.Movie.Title T'
//	ssdq -db file.ssd prepare 'select T from DB.Entry.$kind.Title T'
//	ssdq -db file.ssd -param kind=Movie run 'select T from DB.Entry.$kind.Title T'
//	ssdq -db file.ssd -param who='"Allen"' run 'select {T: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who'
//	ssdq -db file.ssd run 'path: Entry.Movie.Title'
//	ssdq -db file.ssd run 'unql: relabel Title to TITLE'
//	ssdq -db file.ssd path   'Entry.Movie.(!Movie)*."Allen"'       # = run 'path: ...'
//	ssdq -db file.ssd datalog 'reach(X) :- root(X). reach(Y) :- reach(X), edge(X,_,Y).'
//	ssdq -db file.ssd browse -depth 3
//	ssdq -db file.ssd guide
//	ssdq -db file.ssd schema
//	ssdq -db file.ssd fmt
//	ssdq -db in.ssd convert -o out.ssdg   (formats: .ssd text, .ssdg binary, .oem)
//	ssdq -db file.ssd save dbdir          # export as a durable directory
//	ssdq open dbdir                       # recover it and report what that took
//	ssdq -data dbdir query '...'          # any command against a durable directory
//	ssdq -data dbdir mutate 'addnode; addedge 0 Tag $0'   # WAL-logged commit
//	ssdq -data dbdir mutate script.mut    # statements from a file
//	ssdq -db file.ssdg -o out.ssdg mutate script.mut     # volatile: edit a copy
//	ssdq -data dbdir checkpoint           # fold the WAL into a new generation
//	ssdq demo            # run the Figure 1 tour without a database file
//
// prepare parses a statement once and reports its sniffed language,
// declared $parameters, result columns and plan. run executes a prepared
// statement: -param name=value (repeatable) binds parameters — values
// parse as label literals (symbol, "string", number, true/false). Select
// queries and transforms print the result database; path and datalog
// statements stream their rows. query, path and datalog are run with the
// language fixed (`query X` = `run 'query: X'`), and explain prints the
// plan of any statement (with -analyze: executed, with actual row counts).
//
// The mutate command applies a mutation script (see internal/mutate's
// ParseScript for the statement forms) as one atomic batch. To make
// mutations durable, seed a directory once (`ssdq -db f save dir`) and
// mutate through it (`ssdq -data dir mutate ...`): the batch is logged to
// the directory's write-ahead log before it is applied. With -o the
// mutated database is also saved.
//
// Durable directories: `save <dir>` exports the loaded database as the
// first snapshot generation of a durable directory; -data <dir> runs any
// command against such a directory (recovering the newest generation and
// replaying the WAL tail first), with mutate commits logged durably; the
// checkpoint command folds the log into a fresh generation so the next
// open replays nothing; `open <dir>` just recovers and reports what that
// took. See internal/core's OpenPath/Checkpoint.
//
// With no -db or -data flag, ssdq uses the built-in Figure 1 database.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/oem"
	"repro/internal/schema"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// paramFlags collects repeatable -param name=value flags.
type paramFlags []core.Param

func (p *paramFlags) String() string { return fmt.Sprintf("%d params", len(*p)) }

func (p *paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	// Values parse as label literals: bare word → symbol, "quoted" →
	// string, number → int/float, true/false.
	l, err := ssd.ParseLabel(val)
	if err != nil {
		return err
	}
	*p = append(*p, core.Param{Name: name, Value: l})
	return nil
}

func main() {
	var (
		dbPath  = flag.String("db", "", "database file (.ssd text or .ssdg binary); default: built-in Figure 1")
		dataDir = flag.String("data", "", "durable database directory (snapshots + WAL); alternative to -db")
		depth   = flag.Int("depth", 3, "browse: maximum path depth")
		limit   = flag.Int("limit", 40, "browse: maximum paths listed")
		out     = flag.String("o", "", "convert/mutate: output file (.ssd or .ssdg)")
		explain = flag.Bool("explain", false, "query/path/datalog/run: print the chosen plan before the result")
		analyze = flag.Bool("analyze", false, "explain: execute the query and annotate the plan with actual row counts")
		trace   = flag.Bool("trace", false, "run: stream the rows, then print the per-operator execution trace as JSON on stderr")
		pool    = flag.Int64("pool-bytes", 0, "with -data: read through an on-disk page file with a buffer pool of this many bytes (0 = all in memory)")
		params  paramFlags
	)
	flag.Var(&params, "param", "run/query/path/datalog, -analyze explain: bind a $parameter as name=value (repeatable)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ssdq [flags] <stats|query|explain|prepare|run|path|datalog|browse|guide|schema|fmt|convert|mutate|save|open|checkpoint|demo> [arg]")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]

	if cmd == "open" {
		// open recovers a durable directory and reports what that took; it
		// takes the directory as its argument, not through -data.
		runOpen(arg(rest, "open"))
		return
	}

	var db *core.Database
	var err error
	switch {
	case *dataDir != "":
		if *dbPath != "" {
			fatal(fmt.Errorf("-db conflicts with -data: the directory is the database (use `ssdq -db file save <dir>` to seed one)"))
		}
		if db, err = core.OpenPathOptions(*dataDir, core.Options{PoolBytes: *pool}); err != nil {
			fatal(err)
		}
		defer db.CloseWAL()
	default:
		if *pool > 0 {
			fatal(fmt.Errorf("-pool-bytes requires -data: the page file lives in the durable directory"))
		}
		if db, err = load(*dbPath); err != nil {
			fatal(err)
		}
	}

	switch cmd {
	case "stats":
		fmt.Println(db.Describe())
	case "fmt":
		fmt.Println(db.Format())
	case "query", "path", "datalog":
		if err := runStmt(db, cmd+": "+arg(rest, cmd), params, *limit, *trace, *explain); err != nil {
			fatal(err)
		}
	case "explain":
		s, err := db.Prepare(arg(rest, "explain"))
		if err != nil {
			fatal(err)
		}
		var plan string
		if *analyze {
			plan, err = s.ExplainAnalyze(context.Background(), params...)
		} else {
			plan, err = s.Explain()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(plan)
	case "prepare":
		s, err := db.Prepare(arg(rest, "prepare"))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("language: %s\n", s.Lang())
		if ps := s.Params(); len(ps) > 0 {
			fmt.Printf("params:   $%s\n", strings.Join(ps, ", $"))
		}
		if cols := s.Columns(); len(cols) > 0 {
			fmt.Printf("columns:  %s\n", strings.Join(cols, ", "))
		}
		plan, err := s.Explain()
		if err != nil {
			fatal(err)
		}
		fmt.Print(plan)
	case "run":
		if err := runStmt(db, arg(rest, "run"), params, *limit, *trace, *explain); err != nil {
			fatal(err)
		}
	case "browse":
		for _, a := range db.DataGuide().Summary(*depth, *limit) {
			parts := make([]string, len(a.Path))
			for i, l := range a.Path {
				parts[i] = l.String()
			}
			fmt.Printf("%-60s %d\n", strings.Join(parts, "."), a.ExtentLen)
		}
	case "guide":
		g := db.DataGuide()
		fmt.Printf("dataguide: %d nodes, %d edges (data: %s)\n",
			g.NumNodes(), g.G.NumEdges(), db.Describe())
	case "schema":
		s := schema.Infer(db.Graph())
		nodes, edges := s.Size()
		fmt.Printf("inferred schema (%d nodes, %d edges):\n%s\n", nodes, edges, s)
	case "convert":
		if *out == "" {
			fatal(fmt.Errorf("convert requires -o"))
		}
		if err := save(db, *out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	case "mutate":
		if err := runMutate(db, arg(rest, "mutate"), *out); err != nil {
			fatal(err)
		}
	case "save":
		dir := arg(rest, "save")
		if err := db.SavePath(dir); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %s as durable directory %s\n", db.Describe(), dir)
	case "checkpoint":
		if !db.Durable() {
			fatal(fmt.Errorf("checkpoint requires -data"))
		}
		info, err := db.Checkpoint()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("checkpointed generation %d: %s (%d bytes, %d batches folded)\n",
			info.Seq, info.Path, info.Bytes, info.Truncated)
	case "demo":
		demo(db)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func arg(rest []string, cmd string) string {
	if len(rest) != 1 {
		fatal(fmt.Errorf("%s requires exactly one argument", cmd))
	}
	return rest[0]
}

func load(path string) (*core.Database, error) {
	if path == "" {
		return core.FromGraph(workload.Fig1(false)), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".ssdg"):
		return core.Open(path)
	case strings.HasSuffix(path, ".oem"):
		d, err := oem.Parse(string(data))
		if err != nil {
			return nil, err
		}
		return core.FromGraph(oem.ToGraph(d)), nil
	default:
		return core.ParseText(string(data))
	}
}

func save(db *core.Database, path string) error {
	switch {
	case strings.HasSuffix(path, ".ssdg"):
		return db.Save(path)
	case strings.HasSuffix(path, ".oem"):
		return os.WriteFile(path, []byte(oem.FromGraph(db.Graph()).Format()), 0o644)
	default:
		return os.WriteFile(path, []byte(db.Format()+"\n"), 0o644)
	}
}

// runMutate applies one mutation script as an atomic batch — logged first
// when the database is a durable directory (-data) — and optionally saves
// the result.
func runMutate(db *core.Database, script, outPath string) error {
	// The argument is either inline statements or a script file.
	if data, err := os.ReadFile(script); err == nil {
		script = string(data)
	}
	b, err := mutate.ParseScript(script, db.Graph())
	if err != nil {
		return err
	}
	if err := db.Commit(b); err != nil {
		return err
	}
	fmt.Printf("applied %d records: %s\n", b.Len(), db.Describe())
	if outPath != "" {
		if err := save(db, outPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}

// runStmt prepares and executes one statement with bound parameters,
// printing its plan first when explain is set. Query statements print the
// result database (streaming the rows would lose the select template).
// Path and datalog statements stream their rows; transforms print the
// restructured database.
func runStmt(db *core.Database, src string, params []core.Param, limit int, trace, explain bool) error {
	s, err := db.Prepare(src)
	if err != nil {
		return err
	}
	if explain {
		plan, err := s.Explain()
		if err != nil {
			return err
		}
		fmt.Print(plan)
	}
	ctx := context.Background()
	if s.Lang() == core.LangTransform || s.Lang() == core.LangQuery && !trace {
		res, err := s.Exec(ctx, params...)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		return nil
	}
	// Path and datalog statements stream their rows, and so do traced
	// select queries: tracing needs the streaming cursor.
	var qtr *core.QueryTrace
	if trace {
		qtr = new(core.QueryTrace)
	}
	rows, err := s.QueryTraced(ctx, qtr, params...)
	if err != nil {
		return err
	}
	if err := streamRows(rows, limit); err != nil || qtr == nil {
		return err
	}
	// streamRows closed the cursor, which finalized the trace.
	out, err := json.MarshalIndent(qtr, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, string(out))
	return nil
}

// streamRows prints a cursor's rows up to the print cutoff, then the total
// count. It closes the cursor before returning.
func streamRows(rows *core.Rows, limit int) error {
	defer rows.Close()
	cols := rows.Columns()
	cells := make([]string, len(cols))
	dests := make([]any, len(cols))
	for i := range cells {
		dests[i] = &cells[i]
	}
	n := 0
	for rows.Next() {
		// Past the print cutoff only the count matters; skip the
		// per-column formatting.
		if n < limit {
			if err := rows.Scan(dests...); err != nil {
				return err
			}
			fmt.Println("  " + strings.Join(cells, "  "))
		} else if n == limit {
			fmt.Println("  ...")
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Printf("%d rows\n", n)
	rows.Close()
	return nil
}

// runOpen recovers a durable directory and reports the recovery cost: the
// generation recovered from and how much of the log it had to replay.
func runOpen(dir string) {
	db, err := core.OpenPath(dir)
	if err != nil {
		fatal(err)
	}
	defer db.CloseWAL()
	ri := db.LastRecovery()
	if ri.SnapshotPath == "" {
		fmt.Printf("opened %s: no snapshot yet, %d batches replayed from the log\n", dir, ri.Replayed)
	} else {
		fmt.Printf("opened %s: generation %d, %d batches skipped (already folded), %d replayed\n",
			dir, ri.SnapshotSeq, ri.Skipped, ri.Replayed)
	}
	fmt.Println(db.Describe())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssdq:", err)
	os.Exit(1)
}

// demo walks through the paper's running examples on the loaded database.
func demo(db *core.Database) {
	fmt.Println("database:", db.Describe())
	steps := []struct{ title, q string }{
		{"movie titles", `select T from DB.Entry.Movie.Title T`},
		{"who directed something Allen acted in",
			`select {Director: D} from DB.Entry.Movie M, M.Director D, M.Cast._* A where A = "Allen"`},
		{"both cast representations at once",
			`select {Name: %N} from DB.Entry._.Cast.(isint|Credit.Actors|Special-Guests)? A, A.%N L where isstring(%N)`},
		{"attribute names starting with 'Act' (§1.3)",
			`select {%L} from DB._* X, X.%L Y where %L like "Act%"`},
	}
	for _, s := range steps {
		fmt.Printf("\n-- %s\n   %s\n", s.title, s.q)
		stmt, err := db.Prepare(s.q)
		if err != nil {
			fatal(err)
		}
		res, err := stmt.Exec(context.Background())
		if err != nil {
			fatal(err)
		}
		fmt.Println("  ", res.Format())
	}
	fmt.Println("\n-- browse (dataguide paths, depth ≤ 2)")
	for _, a := range db.DataGuide().Summary(2, 12) {
		parts := make([]string, len(a.Path))
		for i, l := range a.Path {
			parts[i] = l.String()
		}
		fmt.Printf("   %-40s extent %d\n", strings.Join(parts, "."), a.ExtentLen)
	}
}
