package sqldb

import (
	"math"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks    []token
	pos     int
	nParams int
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, errorf("unexpected trailing input at %s", p.peek())
	}
	return stmt, nil
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool   { return p.peek().kind == tokEOF }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(n int) { p.pos = n }

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return errorf("expected %q, found %s", s, p.peek())
	}
	return nil
}

// expectIdent consumes an identifier; non-reserved use of keywords as
// names is not supported (quote them instead).
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	return "", errorf("expected identifier, found %s", t)
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, errorf("expected statement, found %s", t)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "DELETE":
		return p.parseDelete()
	case "UPDATE":
		return p.parseUpdate()
	}
	return nil, errorf("unsupported statement %s", t)
}

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, errorf("UNIQUE is not valid on CREATE TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	}
	return nil, errorf("expected TABLE or INDEX after CREATE, found %s", p.peek())
}

func (p *parser) parseCreateTable() (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	def := TableDef{Name: name}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				idx := def.ColumnIndex(col)
				if idx < 0 {
					return nil, errorf("PRIMARY KEY references unknown column %s", col)
				}
				def.PrimaryKey = append(def.PrimaryKey, idx)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			if def.ColumnIndex(col.Name) >= 0 {
				return nil, errorf("duplicate column %s", col.Name)
			}
			def.Columns = append(def.Columns, col)
			// Inline PRIMARY KEY on a single column.
			if p.acceptKeyword("PRIMARY") {
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				if len(def.PrimaryKey) > 0 {
					return nil, errorf("multiple primary keys")
				}
				def.PrimaryKey = []int{len(def.Columns) - 1}
			}
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Def: def}, nil
}

func (p *parser) parseColumnDef() (Column, error) {
	name, err := p.expectIdent()
	if err != nil {
		return Column{}, err
	}
	typ, err := p.parseTypeName()
	if err != nil {
		return Column{}, err
	}
	col := Column{Name: name, Type: typ}
	for {
		if p.acceptKeyword("NOT") {
			if err := p.expectKeyword("NULL"); err != nil {
				return Column{}, err
			}
			col.NotNull = true
			continue
		}
		break
	}
	return col, nil
}

func (p *parser) parseTypeName() (Type, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return TypeNull, errorf("expected type name, found %s", t)
	}
	p.pos++
	switch t.text {
	case "INTEGER", "INT":
		return TypeInt, nil
	case "REAL", "FLOAT":
		return TypeFloat, nil
	case "TEXT":
		return TypeText, nil
	case "VARCHAR":
		// Accept VARCHAR(n); the length is advisory.
		if p.acceptSymbol("(") {
			if p.peek().kind != tokInt {
				return TypeNull, errorf("expected length in VARCHAR(n)")
			}
			p.next()
			if err := p.expectSymbol(")"); err != nil {
				return TypeNull, err
			}
		}
		return TypeText, nil
	case "BOOLEAN":
		return TypeBool, nil
	case "BLOB":
		return TypeBlob, nil
	}
	return TypeNull, errorf("unknown type %s", t)
}

func (p *parser) parseCreateIndex(unique bool) (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols, Unique: unique}, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	p.next() // DROP
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: name}, nil
	case p.acceptKeyword("INDEX"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropIndexStmt{Name: name}, nil
	}
	return nil, errorf("expected TABLE or INDEX after DROP, found %s", p.peek())
}

func (p *parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Select = sel
		return stmt, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Column: col, Value: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		stmt.From = from
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, errorf("only UNION ALL is supported")
		}
		rest, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.UnionAll = rest
		return stmt, nil
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Limit = e
		if p.acceptKeyword("OFFSET") {
			o, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Offset = o
		}
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if p.peek().kind == tokIdent {
		save := p.save()
		name := p.next().text
		if p.acceptSymbol(".") && p.acceptSymbol("*") {
			return SelectItem{Star: true, StarTable: name}, nil
		}
		p.restore(save)
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseFrom() ([]FromItem, error) {
	var items []FromItem
	first, err := p.parseFromSource()
	if err != nil {
		return nil, err
	}
	items = append(items, first)
	for {
		switch {
		case p.acceptSymbol(","):
			it, err := p.parseFromSource()
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		case p.peekJoin():
			kind := "INNER"
			if p.acceptKeyword("LEFT") {
				p.acceptKeyword("OUTER")
				kind = "LEFT"
			} else if p.acceptKeyword("CROSS") {
				kind = "CROSS"
			} else {
				p.acceptKeyword("INNER")
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			it, err := p.parseFromSource()
			if err != nil {
				return nil, err
			}
			it.JoinKind = kind
			if kind != "CROSS" {
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				it.On = on
			}
			items = append(items, it)
		default:
			return items, nil
		}
	}
}

func (p *parser) peekJoin() bool {
	t := p.peek()
	if t.kind != tokKeyword {
		return false
	}
	switch t.text {
	case "JOIN", "INNER", "LEFT", "CROSS":
		return true
	}
	return false
}

func (p *parser) parseFromSource() (FromItem, error) {
	var item FromItem
	if p.acceptSymbol("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return item, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return item, err
		}
		item.Sub = sub
	} else {
		name, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Table = name
	}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	if item.Sub != nil && item.Alias == "" {
		return item, errorf("derived table requires an alias")
	}
	return item, nil
}

// Expression grammar, lowest precedence first.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

var compareOps = map[string]bool{"=": true, "<>": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && compareOps[t.text] {
			p.pos++
			op := t.text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: op, L: left, R: right}
			continue
		}
		if t.kind == tokKeyword {
			not := false
			save := p.save()
			if t.text == "NOT" {
				p.pos++
				not = true
				t = p.peek()
			}
			switch t.text {
			case "LIKE":
				p.pos++
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				like := &LikeExpr{X: left, Pattern: pat, Not: not}
				if p.acceptKeyword("ESCAPE") {
					esc, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					like.Escape = esc
				}
				left = like
				continue
			case "IN":
				p.pos++
				in, err := p.parseInTail(left, not)
				if err != nil {
					return nil, err
				}
				left = in
				continue
			case "BETWEEN":
				p.pos++
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BetweenExpr{X: left, Lo: lo, Hi: hi, Not: not}
				continue
			case "IS":
				if not {
					// "x NOT IS" is invalid; backtrack.
					p.restore(save)
					return left, nil
				}
				p.pos++
				isNot := p.acceptKeyword("NOT")
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				left = &IsNullExpr{X: left, Not: isNot}
				continue
			}
			if not {
				p.restore(save)
			}
		}
		return left, nil
	}
}

func (p *parser) parseInTail(left Expr, not bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: left, Sub: sub, Not: not}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &InExpr{X: left, List: list, Not: not}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.pos++
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.pos++
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		// int64's minimum can only be written as the negation of a
		// literal one past int64's maximum, which alone reads as REAL.
		if t := p.peek(); t.kind == tokInt && strings.TrimLeft(t.text, "0") == "9223372036854775808" {
			p.pos++
			return &Literal{Val: NewInt(math.MinInt64)}, nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	if p.acceptSymbol("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.pos++
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return &Literal{Val: NewInt(i)}, nil
		}
		// Out of int64's range: read as REAL, as SQLite does.
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errorf("bad integer literal %s: %v", t.text, err)
		}
		return &Literal{Val: NewFloat(f)}, nil
	case tokFloat:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errorf("bad float literal %s: %v", t.text, err)
		}
		return &Literal{Val: NewFloat(f)}, nil
	case tokString:
		p.pos++
		return &Literal{Val: NewText(t.text)}, nil
	case tokParam:
		p.pos++
		e := &Param{Idx: p.nParams}
		p.nParams++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Literal{Val: Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "EXISTS":
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Sub: sub}, nil
		case "NOT":
			p.pos++
			x, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: "NOT", X: x}, nil
		}
		return nil, errorf("unexpected keyword %s in expression", t)
	case tokIdent:
		return p.parseIdentExpr()
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, errorf("unexpected token %s in expression", t)
}

func (p *parser) parseIdentExpr() (Expr, error) {
	name := p.next().text
	// Function call?
	if p.acceptSymbol("(") {
		fn := &FuncExpr{Name: strings.ToUpper(name)}
		if p.acceptSymbol("*") {
			fn.Star = true
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fn, nil
		}
		if p.acceptSymbol(")") {
			return fn, nil
		}
		if p.acceptKeyword("DISTINCT") {
			fn.Distinct = true
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fn.Args = append(fn.Args, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fn, nil
	}
	// Qualified column?
	if p.acceptSymbol(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	c := &CaseExpr{}
	if !(p.peek().kind == tokKeyword && p.peek().text == "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseCast() (Expr, error) {
	p.next() // CAST
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	typ, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CastExpr{X: x, To: typ}, nil
}
