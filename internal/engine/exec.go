package engine

import (
	"fmt"
	"strings"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
)

func (x *executor) runCreateTable(s *sqlparser.CreateTableStmt) (*Result, error) {
	lc := strings.ToLower(s.Name)

	if s.AsSelect != nil {
		// Evaluate the query first (it takes its own read locks via the
		// caller's collect; here we collect explicitly).
		reads, err := x.collectTables(&sqlparser.SelectStmt{Body: s.AsSelect})
		if err != nil {
			return nil, err
		}
		unlock := x.eng.lockTables(reads, nil)
		rel, err := x.evalBody(s.AsSelect)
		unlock()
		if err != nil {
			return nil, err
		}
		schema, err := inferSchema(rel)
		if err != nil {
			return nil, err
		}
		t, err := x.createTableObject(lc, s, schema, -1)
		if err != nil || t == nil {
			return &Result{}, err
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, r := range rel.rows {
			key := sqltypes.NewInt(x.eng.rowid.Add(1)).MapKey()
			if err := t.store.Insert(key, r.Clone()); err != nil {
				return nil, err
			}
		}
		t.commitStore()
		x.work.written += int64(len(rel.rows))
		x.eng.stats.RowsInserted.Add(int64(len(rel.rows)))
		return &Result{RowsAffected: int64(len(rel.rows))}, nil
	}

	if len(s.Columns) == 0 {
		return nil, fmt.Errorf("engine: CREATE TABLE %s has no columns", s.Name)
	}
	cols := make([]sqltypes.Column, len(s.Columns))
	pk := -1
	for i, c := range s.Columns {
		cols[i] = sqltypes.Column{Name: c.Name, Type: c.Type}
		if c.PrimaryKey {
			if pk >= 0 {
				return nil, fmt.Errorf("engine: table %s declares multiple primary keys", s.Name)
			}
			pk = i
		}
	}
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	if _, err := x.createTableObject(lc, s, schema, pk); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// createTableObject registers the table in the catalog. It returns nil
// (no error) when IF NOT EXISTS suppressed creation.
func (x *executor) createTableObject(lc string, s *sqlparser.CreateTableStmt, schema *sqltypes.Schema, pk int) (*Table, error) {
	x.eng.mu.Lock()
	defer x.eng.mu.Unlock()
	if _, exists := x.eng.tables[lc]; exists {
		if s.IfNotExists {
			return nil, nil
		}
		return nil, fmt.Errorf("engine: table %q already exists", s.Name)
	}
	if _, exists := x.eng.views[lc]; exists {
		return nil, fmt.Errorf("engine: view %q already exists", s.Name)
	}
	store, err := x.eng.newStore(lc, !s.Unlogged)
	if err != nil {
		return nil, err
	}
	t := &Table{
		name:     lc,
		schema:   schema,
		pkCol:    pk,
		unlogged: s.Unlogged,
		store:    store,
		indexes:  make(map[string]*hashIndex),
	}
	x.eng.tables[lc] = t
	if err := x.eng.saveDiskCatalog(t); err != nil {
		delete(x.eng.tables, lc)
		if d, ok := store.(storage.Dropper); ok {
			_ = d.Drop()
		}
		return nil, fmt.Errorf("engine: persisting catalog for %q: %w", s.Name, err)
	}
	x.eng.noteDDL(lc)
	return t, nil
}

// inferSchema derives a schema from a materialized relation, unifying
// the value kinds seen in each column.
func inferSchema(rel *relation) (*sqltypes.Schema, error) {
	cols := make([]sqltypes.Column, len(rel.cols))
	for i, name := range rel.cols {
		cols[i] = sqltypes.Column{Name: name, Type: sqltypes.TypeAny}
	}
	for _, r := range rel.rows {
		for i, v := range r {
			cols[i].Type = sqltypes.UnifyColumnTypes(cols[i].Type, sqltypes.KindToColumnType(v.Kind()))
		}
	}
	return sqltypes.NewSchema(cols...)
}

func (x *executor) runCreateIndex(s *sqlparser.CreateIndexStmt) (*Result, error) {
	if len(s.Columns) != 1 {
		return nil, fmt.Errorf("engine: only single-column indexes are supported (got %d columns)", len(s.Columns))
	}
	tbl, ok := x.eng.lookupTable(s.Table)
	if !ok {
		return nil, &ErrTableNotFound{Name: s.Table}
	}
	col := tbl.schema.ColumnIndex(s.Columns[0])
	if col < 0 {
		return nil, &ErrColumnNotFound{Name: s.Columns[0]}
	}
	lc := strings.ToLower(s.Name)
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	if _, exists := tbl.indexes[lc]; exists {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("engine: index %q already exists", s.Name)
	}
	ix := newHashIndex(lc, col)
	tbl.store.Scan(func(pk sqltypes.Key, row sqltypes.Row) bool {
		ix.add(pk, row)
		return true
	})
	x.work.scanned += int64(tbl.store.Len())
	// The table name is bumped too: an index changes how statements over
	// the table would plan, so their cached entries must revalidate.
	tbl.indexes[lc] = ix
	x.eng.noteDDL(lc, s.Table)
	return &Result{}, nil
}

func (x *executor) runCreateView(s *sqlparser.CreateViewStmt) (*Result, error) {
	lc := strings.ToLower(s.Name)
	x.eng.mu.Lock()
	defer x.eng.mu.Unlock()
	if _, exists := x.eng.tables[lc]; exists {
		return nil, fmt.Errorf("engine: table %q already exists", s.Name)
	}
	if _, exists := x.eng.views[lc]; exists && !s.OrReplace {
		return nil, fmt.Errorf("engine: view %q already exists", s.Name)
	}
	x.eng.views[lc] = &view{name: lc, body: s.Body}
	x.eng.noteDDL(lc)
	return &Result{}, nil
}

func (x *executor) runDrop(s *sqlparser.DropStmt) (*Result, error) {
	lc := strings.ToLower(s.Name)
	x.eng.mu.Lock()
	defer x.eng.mu.Unlock()
	switch s.Kind {
	case sqlparser.DropTable:
		t, ok := x.eng.tables[lc]
		if !ok {
			if s.IfExists {
				return &Result{}, nil
			}
			return nil, &ErrTableNotFound{Name: s.Name}
		}
		delete(x.eng.tables, lc)
		x.eng.noteDDL(lc)
		dropped := []string{lc}
		t.mu.Lock()
		for ix := range t.indexes {
			dropped = append(dropped, ix)
		}
		t.mu.Unlock()
		x.eng.forgetObjects(dropped...)
		if err := x.eng.saveDiskCatalog(t); err != nil {
			return nil, fmt.Errorf("engine: persisting catalog after dropping %q: %w", s.Name, err)
		}
		if d, ok := t.store.(storage.Dropper); ok {
			t.mu.Lock()
			err := d.Drop()
			t.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("engine: dropping storage of %q: %w", s.Name, err)
			}
		}
	case sqlparser.DropView:
		if _, ok := x.eng.views[lc]; !ok {
			if s.IfExists {
				return &Result{}, nil
			}
			return nil, &ErrTableNotFound{Name: s.Name}
		}
		delete(x.eng.views, lc)
		x.eng.noteDDL(lc)
		x.eng.forgetObjects(lc)
	case sqlparser.DropIndex:
		for _, t := range x.eng.tables {
			t.mu.Lock()
			if _, ok := t.indexes[lc]; ok {
				delete(t.indexes, lc)
				t.mu.Unlock()
				x.eng.noteDDL(lc, t.name)
				x.eng.forgetObjects(lc)
				return &Result{}, nil
			}
			t.mu.Unlock()
		}
		if !s.IfExists {
			return nil, fmt.Errorf("engine: index %q does not exist", s.Name)
		}
	}
	return &Result{}, nil
}

func (x *executor) runTruncate(s *sqlparser.TruncateStmt) (*Result, error) {
	tbl, ok := x.eng.lookupTable(s.Table)
	if !ok {
		return nil, &ErrTableNotFound{Name: s.Table}
	}
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	n := int64(tbl.store.Len())
	tbl.store.Clear()
	for _, ix := range tbl.indexes {
		ix.clear()
	}
	x.work.written += n
	x.eng.stats.RowsDeleted.Add(n)
	return &Result{RowsAffected: n}, nil
}

func (x *executor) runInsert(s *sqlparser.InsertStmt) (*Result, error) {
	tbl, ok := x.eng.lookupTable(s.Table)
	if !ok {
		return nil, &ErrTableNotFound{Name: s.Table}
	}
	reads, err := x.collectTables(s)
	if err != nil {
		return nil, err
	}
	unlock := x.eng.lockTables(reads, []*Table{tbl})
	defer unlock()

	rel, err := x.evalBody(s.Source)
	if err != nil {
		return nil, err
	}

	// Map source columns onto table columns.
	targetIdx := make([]int, 0, tbl.schema.Len())
	if len(s.Columns) > 0 {
		if len(s.Columns) != len(rel.cols) {
			return nil, fmt.Errorf("engine: INSERT lists %d columns, query returns %d",
				len(s.Columns), len(rel.cols))
		}
		for _, c := range s.Columns {
			i := tbl.schema.ColumnIndex(c)
			if i < 0 {
				return nil, &ErrColumnNotFound{Name: c}
			}
			targetIdx = append(targetIdx, i)
		}
	} else {
		if len(rel.cols) != tbl.schema.Len() {
			return nil, fmt.Errorf("engine: INSERT into %s expects %d columns, query returns %d",
				s.Table, tbl.schema.Len(), len(rel.cols))
		}
		for i := 0; i < tbl.schema.Len(); i++ {
			targetIdx = append(targetIdx, i)
		}
	}

	inserted := int64(0)
	for _, src := range rel.rows {
		row := make(sqltypes.Row, tbl.schema.Len())
		for i := range row {
			row[i] = sqltypes.Null
		}
		for j, ti := range targetIdx {
			v, err := tbl.schema.Columns[ti].Type.Coerce(src[j])
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", tbl.schema.Columns[ti].Name, err)
			}
			row[ti] = v
		}
		key, err := tbl.keyFor(row, &x.eng.rowid)
		if err != nil {
			return nil, err
		}
		if err := tbl.store.Insert(key, row); err != nil {
			if err == storage.ErrDuplicateKey {
				return nil, fmt.Errorf("engine: duplicate primary key %v in table %s",
					row[tbl.pkCol], s.Table)
			}
			return nil, err
		}
		tbl.addToIndexes(key, row)
		x.sess.record(undoRec{kind: undoInsert, table: tbl, key: key})
		inserted++
	}
	x.work.written += inserted
	x.eng.stats.RowsInserted.Add(inserted)
	return &Result{RowsAffected: inserted}, nil
}

// keyFor derives the storage key for a row: its primary-key column when
// declared, a synthetic rowid otherwise.
func (t *Table) keyFor(row sqltypes.Row, rowid interface{ Add(int64) int64 }) (sqltypes.Key, error) {
	if t.pkCol >= 0 {
		v := row[t.pkCol]
		if v.IsNull() {
			return sqltypes.Key{}, fmt.Errorf("engine: NULL primary key in table %s", t.name)
		}
		return v.MapKey(), nil
	}
	return sqltypes.NewInt(rowid.Add(1)).MapKey(), nil
}

func (x *executor) runUpdate(s *sqlparser.UpdateStmt) (*Result, error) {
	tbl, ok := x.eng.lookupTable(s.Table)
	if !ok {
		return nil, &ErrTableNotFound{Name: s.Table}
	}
	reads, err := x.collectTables(s)
	if err != nil {
		return nil, err
	}
	unlock := x.eng.lockTables(reads, []*Table{tbl})
	defer unlock()

	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	targetFrame := &frame{}
	targetFrame.addRel(alias, tbl.schema.Names())

	// Resolve SET target columns up front.
	setCols := make([]int, len(s.Sets))
	for i, a := range s.Sets {
		ci := tbl.schema.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, &ErrColumnNotFound{Name: a.Column}
		}
		setCols[i] = ci
	}

	// Materialize the FROM product once, if present.
	var from *source
	if len(s.From) > 0 {
		from, err = x.evalFromList(s.From, nil)
		if err != nil {
			return nil, err
		}
	}

	type change struct {
		key sqltypes.Key
		old sqltypes.Row
		new sqltypes.Row
	}
	var changes []change
	vals := make([]sqltypes.Value, len(s.Sets))

	if from == nil {
		env := &evalEnv{frame: targetFrame, x: x}
		var whereProg program
		if s.Where != nil {
			whereProg = x.prog(s.Where, targetFrame)
		}
		setProgs := x.setProgs(s.Sets, targetFrame)
		tbl.store.Scan(func(key sqltypes.Key, row sqltypes.Row) bool {
			env.row = row
			if whereProg != nil {
				v, e := whereProg(env)
				if e != nil {
					err = e
					return false
				}
				if !v.IsTrue() {
					return true
				}
			}
			newRow, changed, e := applySets(tbl, s.Sets, setCols, setProgs, env, row, vals)
			if e != nil {
				err = e
				return false
			}
			if changed {
				changes = append(changes, change{key: key, old: row, new: newRow})
			}
			return true
		})
		x.work.scanned += int64(tbl.store.Len())
		x.eng.stats.RowsScanned.Add(int64(tbl.store.Len()))
		if err != nil {
			return nil, err
		}
	} else {
		combinedFrame := concatFrames(targetFrame, from.frame)
		// Hash-join the target with the FROM product on any equi
		// conjuncts in WHERE; fall back to nested loop.
		tKeys, fKeys, residual := splitEquiConjuncts(s.Where, targetFrame, from.frame)
		env := &evalEnv{frame: combinedFrame, x: x}

		var build *rowIndex
		var buildRows [][]sqltypes.Row
		if len(tKeys) > 0 {
			build = x.newRowIndex(len(from.rows))
			fenv := &evalEnv{frame: from.frame, x: x}
			fProgs := make([]program, len(fKeys))
			for i, ke := range fKeys {
				fProgs[i] = x.prog(ke, from.frame)
			}
			kv := make(sqltypes.Row, len(fKeys))
			for _, fr := range from.rows {
				fenv.row = fr
				null := false
				for i, p := range fProgs {
					v, e := p(fenv)
					if e != nil {
						return nil, e
					}
					if v.IsNull() {
						null = true
						break
					}
					kv[i] = v
				}
				if null {
					continue
				}
				id, isNew := build.bucket(kv, false)
				if isNew {
					buildRows = append(buildRows, nil)
				}
				buildRows[id] = append(buildRows[id], fr)
			}
		}

		// Predicate: residual conjuncts when hash-joining, the full WHERE
		// otherwise (nested loop).
		var predProg program
		if build != nil {
			predProg = x.residualProg(residual, combinedFrame)
		} else if s.Where != nil {
			predProg = x.prog(s.Where, combinedFrame)
		}
		tProgs := make([]program, len(tKeys))
		for i, ke := range tKeys {
			tProgs[i] = x.prog(ke, targetFrame)
		}
		setProgs := x.setProgs(s.Sets, combinedFrame)

		tenv := &evalEnv{frame: targetFrame, x: x}
		combined := make(sqltypes.Row, combinedFrame.width)
		kv := make(sqltypes.Row, len(tKeys))
		tbl.store.Scan(func(key sqltypes.Key, row sqltypes.Row) bool {
			candidates := from.rows
			if build != nil {
				tenv.row = row
				null := false
				for i, p := range tProgs {
					v, e := p(tenv)
					if e != nil {
						err = e
						return false
					}
					if v.IsNull() {
						null = true
						break
					}
					kv[i] = v
				}
				if null {
					return true
				}
				if id := build.lookup(kv); id >= 0 {
					candidates = buildRows[id]
				} else {
					candidates = nil
				}
			}
			for _, fr := range candidates {
				copy(combined, row)
				copy(combined[len(row):], fr)
				env.row = combined
				x.work.joined++
				if predProg != nil {
					v, e := predProg(env)
					if e != nil {
						err = e
						return false
					}
					if !v.IsTrue() {
						continue
					}
				}
				newRow, changed, e := applySets(tbl, s.Sets, setCols, setProgs, env, row, vals)
				if e != nil {
					err = e
					return false
				}
				if changed {
					changes = append(changes, change{key: key, old: row, new: newRow})
				}
				break // first matching FROM row wins (PostgreSQL-style)
			}
			return true
		})
		x.work.scanned += int64(tbl.store.Len())
		x.eng.stats.RowsScanned.Add(int64(tbl.store.Len()))
		if err != nil {
			return nil, err
		}
	}

	for _, c := range changes {
		tbl.store.Update(c.key, c.new)
		tbl.reindex(c.key, c.old, c.new)
		x.sess.record(undoRec{kind: undoUpdate, table: tbl, key: c.key, old: c.old})
	}
	n := int64(len(changes))
	x.work.written += n
	x.eng.stats.RowsUpdated.Add(n)
	return &Result{RowsAffected: n}, nil
}

// setProgs lowers the SET assignment expressions against the frame the
// rows will be evaluated in (target-only or target+FROM combined).
func (x *executor) setProgs(sets []sqlparser.Assignment, f *frame) []program {
	progs := make([]program, len(sets))
	for i, a := range sets {
		progs[i] = x.prog(a.Value, f)
	}
	return progs
}

// applySets computes the updated row; changed reports whether any value
// differs from the original (MySQL-style changed-rows counting, which
// SQLoop's UNTIL n UPDATES termination relies on). The stored row is
// never written: it is cloned on the first differing value, so a SET
// that changes nothing allocates nothing and returns a nil row. vals is
// scratch space of len(sets) holding the values assigned so far, replayed
// into the clone.
func applySets(tbl *Table, sets []sqlparser.Assignment, setCols []int, setProgs []program, env *evalEnv, row sqltypes.Row, vals []sqltypes.Value) (sqltypes.Row, bool, error) {
	var newRow sqltypes.Row
	for i, a := range sets {
		v, err := setProgs[i](env)
		if err != nil {
			return nil, false, err
		}
		ci := setCols[i]
		v, err = tbl.schema.Columns[ci].Type.Coerce(v)
		if err != nil {
			return nil, false, fmt.Errorf("column %s: %w", a.Column, err)
		}
		vals[i] = v
		switch {
		case newRow != nil:
			newRow[ci] = v
		case !valuesEqual(row[ci], v):
			newRow = row.Clone()
			for k := 0; k <= i; k++ {
				newRow[setCols[k]] = vals[k]
			}
		}
	}
	if newRow == nil {
		return nil, false, nil
	}
	if tbl.pkCol >= 0 && !valuesEqual(newRow[tbl.pkCol], row[tbl.pkCol]) {
		return nil, false, fmt.Errorf("engine: updating primary key column %s is not supported",
			tbl.schema.Columns[tbl.pkCol].Name)
	}
	return newRow, true, nil
}

// valuesEqual compares values treating NULLs as equal (for change
// detection, not predicate evaluation).
func valuesEqual(a, b sqltypes.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	c, err := sqltypes.Compare(a, b)
	return err == nil && c == 0
}

func (x *executor) runDelete(s *sqlparser.DeleteStmt) (*Result, error) {
	tbl, ok := x.eng.lookupTable(s.Table)
	if !ok {
		return nil, &ErrTableNotFound{Name: s.Table}
	}
	reads, err := x.collectTables(s)
	if err != nil {
		return nil, err
	}
	unlock := x.eng.lockTables(reads, []*Table{tbl})
	defer unlock()

	targetFrame := &frame{}
	targetFrame.addRel(s.Table, tbl.schema.Names())
	env := &evalEnv{frame: targetFrame, x: x}

	type victim struct {
		key sqltypes.Key
		row sqltypes.Row
	}
	var whereProg program
	if s.Where != nil {
		whereProg = x.prog(s.Where, targetFrame)
	}
	var victims []victim
	tbl.store.Scan(func(key sqltypes.Key, row sqltypes.Row) bool {
		if whereProg != nil {
			env.row = row
			v, e := whereProg(env)
			if e != nil {
				err = e
				return false
			}
			if !v.IsTrue() {
				return true
			}
		}
		victims = append(victims, victim{key: key, row: row})
		return true
	})
	x.work.scanned += int64(tbl.store.Len())
	x.eng.stats.RowsScanned.Add(int64(tbl.store.Len()))
	if err != nil {
		return nil, err
	}
	for _, v := range victims {
		tbl.removeFromIndexes(v.key, v.row)
		tbl.store.Delete(v.key)
		x.sess.record(undoRec{kind: undoDelete, table: tbl, key: v.key, old: v.row})
	}
	n := int64(len(victims))
	x.work.written += n
	x.eng.stats.RowsDeleted.Add(n)
	return &Result{RowsAffected: n}, nil
}
