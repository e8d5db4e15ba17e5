// Package token defines the lexical tokens of the Pascal subset accepted
// by the GADT front end, together with source positions.
//
// The subset follows classic Pascal: case-insensitive keywords, nested
// procedures, var parameters, labels and gotos. Token spellings are kept
// in their canonical lower-case form.
package token

import (
	"fmt"
	"strconv"
)

// Kind identifies the lexical class of a token.
type Kind int

// The list of token kinds.
const (
	// Special tokens.
	Illegal Kind = iota
	EOF
	Comment

	literalBeg
	// Identifiers and literals.
	Ident     // arrsum
	IntLit    // 42
	RealLit   // 3.14
	StringLit // 'hello'
	literalEnd

	operatorBeg
	// Operators and delimiters.
	Plus     // +
	Minus    // -
	Star     // *
	Slash    // /
	Eq       // =
	NotEq    // <>
	Less     // <
	LessEq   // <=
	Greater  // >
	GreatEq  // >=
	Assign   // :=
	LParen   // (
	RParen   // )
	LBracket // [
	RBracket // ]
	Comma    // ,
	Semi     // ;
	Colon    // :
	Period   // .
	DotDot   // ..
	Caret    // ^
	operatorEnd

	keywordBeg
	// Keywords.
	And
	Array
	Begin
	Case
	Const
	Div
	Do
	Downto
	Else
	End
	For
	Function
	Goto
	If
	Label
	Mod
	Not
	Of
	Or
	Procedure
	Program
	Record
	Repeat
	Then
	To
	Type
	Until
	Var
	While
	keywordEnd
)

var names = map[Kind]string{
	Illegal:   "ILLEGAL",
	EOF:       "EOF",
	Comment:   "COMMENT",
	Ident:     "IDENT",
	IntLit:    "INT",
	RealLit:   "REAL",
	StringLit: "STRING",
	Plus:      "+",
	Minus:     "-",
	Star:      "*",
	Slash:     "/",
	Eq:        "=",
	NotEq:     "<>",
	Less:      "<",
	LessEq:    "<=",
	Greater:   ">",
	GreatEq:   ">=",
	Assign:    ":=",
	LParen:    "(",
	RParen:    ")",
	LBracket:  "[",
	RBracket:  "]",
	Comma:     ",",
	Semi:      ";",
	Colon:     ":",
	Period:    ".",
	DotDot:    "..",
	Caret:     "^",
	And:       "and",
	Array:     "array",
	Begin:     "begin",
	Case:      "case",
	Const:     "const",
	Div:       "div",
	Do:        "do",
	Downto:    "downto",
	Else:      "else",
	End:       "end",
	For:       "for",
	Function:  "function",
	Goto:      "goto",
	If:        "if",
	Label:     "label",
	Mod:       "mod",
	Not:       "not",
	Of:        "of",
	Or:        "or",
	Procedure: "procedure",
	Program:   "program",
	Record:    "record",
	Repeat:    "repeat",
	Then:      "then",
	To:        "to",
	Type:      "type",
	Until:     "until",
	Var:       "var",
	While:     "while",
}

// String returns the canonical spelling of the token kind (the operator
// symbol or keyword), or an upper-case class name for variable-spelling
// kinds such as identifiers.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsLiteral reports whether the kind is an identifier or literal.
func (k Kind) IsLiteral() bool { return literalBeg < k && k < literalEnd }

// IsOperator reports whether the kind is an operator or delimiter.
func (k Kind) IsOperator() bool { return operatorBeg < k && k < operatorEnd }

// IsKeyword reports whether the kind is a reserved word.
func (k Kind) IsKeyword() bool { return keywordBeg < k && k < keywordEnd }

var keywords = func() map[string]Kind {
	m := make(map[string]Kind, int(keywordEnd-keywordBeg))
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[names[k]] = k
	}
	return m
}()

// Lookup maps a lower-cased identifier spelling to its keyword kind, or
// returns Ident if the spelling is not reserved.
func Lookup(lower string) Kind {
	if k, ok := keywords[lower]; ok {
		return k
	}
	return Ident
}

// Pos is a source position: 1-based line and column plus the file name.
// The zero Pos is "unknown".
type Pos struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether the position carries real line information.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string { return string(p.Append(nil)) }

// Append appends p.String() to dst and returns the extended buffer.
func (p Pos) Append(dst []byte) []byte {
	if !p.IsValid() {
		return append(dst, '-')
	}
	if p.File != "" {
		dst = append(dst, p.File...)
		dst = append(dst, ':')
	}
	dst = strconv.AppendInt(dst, int64(p.Line), 10)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, int64(p.Col), 10)
}

// Before reports whether p occurs before q in the same file.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Token is a single lexical token with its position and spelling.
// Lit holds the original spelling for identifiers and literals; for string
// literals it is the decoded value (quotes removed, ” unescaped).
type Token struct {
	Kind Kind
	Lit  string
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind.IsLiteral() {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}

// Precedence returns the binary operator precedence for expression
// parsing, following Pascal: multiplying operators bind tightest, then
// adding operators, then relational operators. Returns 0 for non-operators.
func (k Kind) Precedence() int {
	switch k {
	case Star, Slash, Div, Mod, And:
		return 3
	case Plus, Minus, Or:
		return 2
	case Eq, NotEq, Less, LessEq, Greater, GreatEq:
		return 1
	}
	return 0
}
