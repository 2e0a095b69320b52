package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sqloop/internal/obs"
	"sqloop/internal/sqlparser"
)

// execRecursive runs WITH RECURSIVE via semi-naive evaluation (§II-A):
// each recursion sees only the rows the previous recursion produced, and
// evaluation stops at the fix point (no new rows).
func (s *SQLoop) execRecursive(ctx context.Context, cte *sqlparser.LoopCTEStmt) (*Result, error) {
	start := time.Now()
	conn, err := s.db.Conn(ctx)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	c := s.newConn(conn)
	defer c.closeStmts()
	rt := newRoundTrace(s.tracer, false)

	ck, err := s.newCkptRun(cte)
	if err != nil {
		return nil, err
	}
	// A recursive snapshot holds exactly R and the working delta.
	if ck.restoring() && len(ck.resumed.Tables) != 2 {
		ck.resumed = nil
	}
	// The namespace token must be settled after the snapshot decision:
	// a restored run reuses the snapshot's token (its table names embed
	// it), a fresh run mints its own so concurrent executions of
	// same-named CTEs never share working tables.
	tok := ck.execToken()

	rUser := strings.ToLower(cte.Name)
	rName := rTableName(tok, cte.Name)
	workName := workTableName(tok, cte.Name) // current delta fed to Ri
	nextName := nextTableName(tok, cte.Name) // rows produced by Ri

	cleanup := func() {
		cctx := context.WithoutCancel(ctx)
		_, _ = c.runStmt(cctx, dropTable(workName))
		_, _ = c.runStmt(cctx, dropTable(nextName))
		if s.opts.KeepTable {
			materializeKeepTable(cctx, c, rUser, rName)
		} else {
			// The user name holds at most this execution's advisory
			// view; the working table lives under the tokenized name.
			_, _ = c.runStmt(cctx, dropView(rUser))
			_, _ = c.runStmt(cctx, dropTable(rName))
		}
	}
	defer cleanup()
	// Stale user-visible objects from a crashed legacy run must not
	// break this one (the tokenized names cannot pre-exist).
	if _, err := c.runStmt(ctx, dropView(rUser)); err != nil {
		return nil, err
	}
	if _, err := c.runStmt(ctx, dropTable(rUser)); err != nil {
		return nil, err
	}

	var cols []string
	iters := 0
	if ck.restoring() {
		// Resume: R and work come back from the snapshot; the iteration
		// counter continues where the checkpoint left it.
		cols = ck.resumed.Columns
		for _, ts := range ck.resumed.Tables {
			if err := ck.restoreTable(ctx, c, ts, false); err != nil {
				return nil, err
			}
		}
		iters = ck.resumed.Round
		ck.markResumed()
	} else {
		// Seed: R and the working delta both start as R0. Column names
		// come from the CTE declaration when present, else from the seed
		// query.
		cols, err = s.seedTable(ctx, c, cte, tok, rName, false)
		if err != nil {
			return nil, err
		}
		if _, err := c.runStmt(ctx, createAnyTable(workName, cols, false)); err != nil {
			return nil, err
		}
		if _, err := c.runStmt(ctx, insertBody(workName, selectStar(rName))); err != nil {
			return nil, err
		}
	}
	publishAdvisoryView(ctx, c, rUser, rName)

	// Round statement templates are generated once, outside the loop:
	// every iteration re-executes the same statements, so the engine's
	// statement cache serves them from round two onward. `next` is
	// created here with R's column layout (ANY-typed, like every working
	// table, so value kinds may drift between rounds) and refilled by
	// TRUNCATE + INSERT — steady-state rounds contain no DDL, which is
	// what lets the cached round statements stay valid across rounds.
	//
	// next = Ri evaluated against the working delta only. With set
	// semantics (UNION without ALL) the delta is additionally pruned
	// against everything already in R — classic semi-naive
	// deduplication, without which transitive closure over cyclic
	// data never reaches its fix point.
	step := renameTableRefs(cte.Step, cte.Name, workName)
	if !cte.UnionAll {
		step = &sqlparser.SetOp{Kind: sqlparser.SetExcept, Left: step, Right: selectStar(rName)}
	}
	if _, err := c.runStmt(ctx, dropTable(nextName)); err != nil {
		return nil, err
	}
	if _, err := c.runStmt(ctx, createAnyTable(nextName, cols, false)); err != nil {
		return nil, err
	}
	truncNext := &sqlparser.TruncateStmt{Table: nextName}
	fillNext := insertBody(nextName, step)

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if iters >= s.opts.MaxIterations {
			return nil, fmt.Errorf("core: recursive CTE %s exceeded %d iterations", cte.Name, s.opts.MaxIterations)
		}
		iters++
		rt.begin(iters)

		if _, err := c.runStmt(ctx, truncNext); err != nil {
			return nil, err
		}
		res, err := c.runStmt(ctx, fillNext)
		if err != nil {
			return nil, err
		}
		n := res.RowsAffected
		rt.end(iters, n)
		if n == 0 {
			break // fix point
		}
		// R ∪= next (UNION ALL / bag semantics); delta = next.
		if _, err := c.runStmt(ctx, insertBody(rName, selectStar(nextName))); err != nil {
			return nil, err
		}
		if _, err := c.runStmt(ctx, &sqlparser.TruncateStmt{Table: workName}); err != nil {
			return nil, err
		}
		if _, err := c.runStmt(ctx, insertBody(workName, selectStar(nextName))); err != nil {
			return nil, err
		}
		if ck.due(iters) {
			if err := ck.save(ctx, func(int) *dbConn { return c }, iters, nil, 0, cols, []string{rName, workName}, nil); err != nil {
				return nil, err
			}
		}
		// Round boundary: hand the scheduler slot to any waiting
		// execution before starting the next round.
		if err := yieldRound(ctx); err != nil {
			return nil, err
		}
	}

	res, err := s.runFinal(ctx, c, cte, tok)
	if err != nil {
		return nil, err
	}
	res.Stats = ExecStats{Mode: ModeSingle, Iterations: iters, Elapsed: time.Since(start), Rounds: rt.rounds}
	ck.finish(&res.Stats)
	return res, nil
}

// seedTable creates the CTE table (first column primary key for
// iterative CTEs, §III-A) and fills it from R0, returning the column
// names in use.
func (s *SQLoop) seedTable(ctx context.Context, c *dbConn, cte *sqlparser.LoopCTEStmt, tok, rName string, pk bool) ([]string, error) {
	cols := cte.Columns
	if len(cols) == 0 {
		// Derive names by materializing the seed once into a scratch
		// table and probing its header.
		scratch := seedScratchName(tok, cte.Name)
		if _, err := c.runStmt(ctx, dropTable(scratch)); err != nil {
			return nil, err
		}
		create := &sqlparser.CreateTableStmt{Name: scratch, AsSelect: cte.Seed, Unlogged: true}
		if _, err := c.runStmt(ctx, create); err != nil {
			return nil, fmt.Errorf("seed of %s: %w", cte.Name, err)
		}
		var err error
		cols, err = columnNamesOf(ctx, c, scratch)
		if err != nil {
			return nil, err
		}
		if _, err := c.runStmt(ctx, createAnyTable(rName, cols, pk)); err != nil {
			return nil, err
		}
		if _, err := c.runStmt(ctx, insertBody(rName, selectStar(scratch))); err != nil {
			return nil, err
		}
		if _, err := c.runStmt(ctx, dropTable(scratch)); err != nil {
			return nil, err
		}
		return cols, nil
	}
	if _, err := c.runStmt(ctx, createAnyTable(rName, cols, pk)); err != nil {
		return nil, err
	}
	if _, err := c.runStmt(ctx, insertBody(rName, cte.Seed)); err != nil {
		return nil, fmt.Errorf("seed of %s: %w", cte.Name, err)
	}
	return cols, nil
}

// runFinal executes Qf with the CTE name (and Rdelta) resolving to this
// execution's tokenized tables.
func (s *SQLoop) runFinal(ctx context.Context, c *dbConn, cte *sqlparser.LoopCTEStmt, tok string) (*Result, error) {
	final := retargetCTE(cte.Final, cte, tok)
	return c.runStmt(ctx, &sqlparser.SelectStmt{Body: final})
}

// publishAdvisoryView exposes the execution's working table under the
// user-visible CTE name as a read-only view, so external observers (the
// bench sampler, concurrent readers) can watch progress. Best effort:
// the name may legitimately be occupied (a user table, another
// execution's view), and execution correctness never depends on it —
// every internal reference is retargeted at the tokenized tables.
func publishAdvisoryView(ctx context.Context, c *dbConn, user, phys string) {
	_, _ = c.runStmt(ctx, dropView(user))
	_, _ = c.runStmt(ctx, &sqlparser.CreateViewStmt{Name: user, Body: selectStar(phys)})
}

// materializeKeepTable re-publishes the final R under the user-visible
// CTE name for Options.KeepTable, replacing whatever holds the name.
// The kept table is logged, unlike the working tables: it is the
// acknowledged result, so an engine restart must not lose it.
func materializeKeepTable(ctx context.Context, c *dbConn, user, phys string) {
	_, _ = c.runStmt(ctx, dropView(user))
	_, _ = c.runStmt(ctx, dropTable(user))
	_, _ = c.runStmt(ctx, &sqlparser.CreateTableStmt{Name: user, AsSelect: selectStar(phys)})
	_, _ = c.runStmt(ctx, dropTable(phys))
}

// execIterative runs WITH ITERATIVE. It analyzes Ri (§V-A); when the
// query qualifies and a parallel mode is requested (or auto), the
// partitioned executor runs; otherwise the single-threaded algorithm of
// §III/IV executes Ri against the live table and merges Rtmp by primary
// key each iteration.
func (s *SQLoop) execIterative(ctx context.Context, cte *sqlparser.LoopCTEStmt) (*Result, error) {
	mode := s.opts.Mode
	an := analyzeStep(cte)

	switch mode {
	case ModeAuto:
		if an.Parallelizable {
			mode = ModeAsync
		} else {
			mode = ModeSingle
		}
	case ModeSync, ModeAsync, ModeAsyncPrio:
		if !an.Parallelizable {
			s.tracer.Emit(obs.Fallback{CTE: cte.Name, Reason: an.Reason})
			s.metrics.Counter("sqloop_fallbacks_total").Inc()
			res, err := s.execIterativeSingle(ctx, cte)
			if err != nil {
				return nil, err
			}
			res.Stats.FallbackReason = an.Reason
			return res, nil
		}
	}
	if mode == ModeSingle {
		return s.execIterativeSingle(ctx, cte)
	}
	return s.execIterativeParallel(ctx, cte, an, mode)
}

// execIterativeSingle is the single-threaded iterative algorithm: R is a
// real table; each iteration materializes Ri into Rtmp and updates R by
// matching primary keys (§III-A, §IV-B).
func (s *SQLoop) execIterativeSingle(ctx context.Context, cte *sqlparser.LoopCTEStmt) (*Result, error) {
	start := time.Now()
	conn, err := s.db.Conn(ctx)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	c := s.newConn(conn)
	defer c.closeStmts()
	rt := newRoundTrace(s.tracer, false)

	ck, err := s.newCkptRun(cte)
	if err != nil {
		return nil, err
	}
	// An iterative single-mode snapshot holds exactly R.
	if ck.restoring() && (ck.resumed.Partitions != 0 || len(ck.resumed.Tables) != 1) {
		ck.resumed = nil
	}
	tok := ck.execToken()

	rUser := strings.ToLower(cte.Name)
	rName := rTableName(tok, cte.Name)
	tmpName := tmpTableName(tok, cte.Name)
	term := newTerminator(cte, s.tracer, tok)
	term.rTable = rName

	cleanup := func() {
		cctx := context.WithoutCancel(ctx)
		_, _ = c.runStmt(cctx, dropTable(tmpName))
		_ = term.cleanup(cctx, c)
		if s.opts.KeepTable {
			materializeKeepTable(cctx, c, rUser, rName)
		} else {
			_, _ = c.runStmt(cctx, dropView(rUser))
			_, _ = c.runStmt(cctx, dropTable(rName))
		}
	}
	defer cleanup()
	// Stale user-visible objects from a crashed legacy run must not
	// break this one (tokenized names cannot pre-exist).
	if _, err := c.runStmt(ctx, dropView(rUser)); err != nil {
		return nil, err
	}
	if _, err := c.runStmt(ctx, dropTable(rUser)); err != nil {
		return nil, err
	}

	var cols []string
	iters := 0
	if ck.restoring() {
		cols = ck.resumed.Columns
		if err := ck.restoreTable(ctx, c, ck.resumed.Tables[0], true); err != nil {
			return nil, err
		}
		iters = ck.resumed.Round
		ck.markResumed()
	} else {
		cols, err = s.seedTable(ctx, c, cte, tok, rName, true)
		if err != nil {
			return nil, err
		}
	}
	publishAdvisoryView(ctx, c, rUser, rName)
	// Rdelta == R at every round boundary (the terminator refreshes it
	// after each check), so prepare can rebuild it from R when resuming.
	if err := term.prepare(ctx, c); err != nil {
		return nil, err
	}

	// The per-round statement templates are built once and contain no
	// DDL: Rtmp is created here with R's column layout (ANY-typed, like
	// every working table) and refilled by TRUNCATE + INSERT each round,
	// so the cached round statements stay valid across rounds instead of
	// being invalidated by working-table churn. Ri references R (and
	// Rdelta) live; its table refs are retargeted at this execution's
	// tokenized tables. An Ri whose column count differs from R's is
	// rejected by the positional INSERT.
	if _, err := c.runStmt(ctx, dropTable(tmpName)); err != nil {
		return nil, err
	}
	if _, err := c.runStmt(ctx, createAnyTable(tmpName, cols, false)); err != nil {
		return nil, err
	}
	truncTmp := &sqlparser.TruncateStmt{Table: tmpName}
	fillTmp := insertBody(tmpName, retargetCTE(cte.Step, cte, tok))
	// UPDATE R by matching Rid with Rtmp's first column: only rows whose
	// keys intersect are touched (§III-A).
	upd := &sqlparser.UpdateStmt{Table: rName, Where: eq(col(rName, cols[0]), col("t", cols[0]))}
	for i := 1; i < len(cols); i++ {
		upd.Sets = append(upd.Sets, sqlparser.Assignment{Column: cols[i], Value: col("t", cols[i])})
	}
	upd.From = []sqlparser.TableExpr{tblAs(tmpName, "t")}

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if iters >= s.opts.MaxIterations {
			return nil, fmt.Errorf("core: iterative CTE %s exceeded %d iterations", cte.Name, s.opts.MaxIterations)
		}
		iters++
		rt.begin(iters)

		// Rtmp = Ri (R referenced live).
		if _, err := c.runStmt(ctx, truncTmp); err != nil {
			return nil, err
		}
		if _, err := c.runStmt(ctx, fillTmp); err != nil {
			return nil, fmt.Errorf("iteration %d of %s: %w", iters, cte.Name, err)
		}
		res, err := c.runStmt(ctx, upd)
		if err != nil {
			return nil, err
		}
		rt.end(iters, res.RowsAffected)

		done, err := term.satisfied(ctx, c, iters, res.RowsAffected)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		if ck.due(iters) {
			if err := ck.save(ctx, func(int) *dbConn { return c }, iters, nil, 0, cols, []string{rName}, nil); err != nil {
				return nil, err
			}
		}
		// Round boundary: hand the scheduler slot to any waiting
		// execution before starting the next round.
		if err := yieldRound(ctx); err != nil {
			return nil, err
		}
	}

	out, err := s.runFinal(ctx, c, cte, tok)
	if err != nil {
		return nil, err
	}
	out.Stats = ExecStats{Mode: ModeSingle, Iterations: iters, Elapsed: time.Since(start), Rounds: rt.rounds}
	ck.finish(&out.Stats)
	return out, nil
}
