"""A typedef-aware recursive-descent parser for C11, producing Cabs.

Follows the grammar of ISO C11 §6.5 (expressions), §6.7 (declarations),
§6.8 (statements) and §6.9 (external definitions). As in Cerberus, it is
a clean-slate parser: no CIL or compiler front end is involved, so no
semantic choices are smuggled in by a pre-existing AST (paper §1).

The classic declaration/expression ambiguity is resolved the standard way:
the parser tracks typedef names in lexical scopes and classifies an
identifier token as a type name when it is visible as a typedef.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple, Union

from ..cabs import ast as C
from ..errors import ParseError
from ..lex.tokens import KEYWORDS, Token, TokenKind

_TYPE_SPEC_KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "_Bool", "_Complex", "struct", "union", "enum", "_Atomic",
})
_STORAGE_KEYWORDS = frozenset({
    "typedef", "extern", "static", "auto", "register", "_Thread_local",
})
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile", "restrict"})
_FUNCTION_SPEC_KEYWORDS = frozenset({"inline", "_Noreturn"})

_ASSIGN_OPS = frozenset({
    "=", "*=", "/=", "%=", "+=", "-=", "<<=", ">>=", "&=", "^=", "|=",
})

# Binary operator precedence (higher binds tighter), §6.5.5-6.5.14.
_BINOP_PREC = {
    "*": 10, "/": 10, "%": 10,
    "+": 9, "-": 9,
    "<<": 8, ">>": 8,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "==": 6, "!=": 6,
    "&": 5, "^": 4, "|": 3,
    "&&": 2, "||": 1,
}


class Parser:
    def __init__(self, tokens: List[Token]):
        # Keywords were just IDENTs to the preprocessor; classify now
        # (translation phase 7).
        self.toks: List[Token] = []
        for t in tokens:
            if t.kind is TokenKind.IDENT and t.text in KEYWORDS:
                t = Token(TokenKind.KEYWORD, t.text, t.loc)
            self.toks.append(t)
        self.i = 0
        self.typedef_scopes: List[Set[str]] = [set()]
        # Names declared as ordinary identifiers, to let a shadowing
        # variable hide an outer typedef (e.g. `typedef int T; { int T; }`).
        self.ordinary_scopes: List[Set[str]] = [set()]

    # ---- token helpers -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def at_eof(self) -> bool:
        return self.peek().kind is TokenKind.EOF

    def error(self, message: str, tok: Optional[Token] = None,
              iso: str = "6") -> ParseError:
        tok = tok or self.peek()
        return ParseError(f"{message} (found {tok.text!r})", tok.loc,
                          iso=iso)

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if not tok.is_punct(text):
            raise self.error(f"expected '{text}'")
        return self.next()

    def accept_punct(self, text: str) -> Optional[Token]:
        if self.peek().is_punct(text):
            return self.next()
        return None

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind is not TokenKind.IDENT:
            raise self.error("expected identifier")
        return self.next()

    # ---- typedef scoping -----------------------------------------------------

    def push_scope(self) -> None:
        self.typedef_scopes.append(set())
        self.ordinary_scopes.append(set())

    def pop_scope(self) -> None:
        self.typedef_scopes.pop()
        self.ordinary_scopes.pop()

    def declare(self, name: Optional[str], is_typedef: bool) -> None:
        if name is None:
            return
        if is_typedef:
            self.typedef_scopes[-1].add(name)
            self.ordinary_scopes[-1].discard(name)
        else:
            self.ordinary_scopes[-1].add(name)
            self.typedef_scopes[-1].discard(name)

    def is_typedef_name(self, name: str) -> bool:
        for tds, ords in zip(reversed(self.typedef_scopes),
                             reversed(self.ordinary_scopes)):
            if name in ords:
                return False
            if name in tds:
                return True
        return False

    def starts_type(self, tok: Token) -> bool:
        if tok.kind is TokenKind.KEYWORD and (
                tok.text in _TYPE_SPEC_KEYWORDS
                or tok.text in _QUALIFIER_KEYWORDS
                or tok.text in ("_Alignas",)):
            return True
        return tok.kind is TokenKind.IDENT and self.is_typedef_name(tok.text)

    def starts_declaration(self, tok: Token) -> bool:
        if tok.kind is TokenKind.KEYWORD and (
                tok.text in _STORAGE_KEYWORDS
                or tok.text in _FUNCTION_SPEC_KEYWORDS
                or tok.text == "_Static_assert"):
            return True
        return self.starts_type(tok)

    # ---- translation unit ------------------------------------------------------

    def parse_translation_unit(self) -> C.TranslationUnit:
        unit = C.TranslationUnit()
        while not self.at_eof():
            unit.decls.append(self.parse_external_declaration())
        return unit

    def parse_external_declaration(
            self) -> Union[C.Declaration, C.FunctionDef, C.StaticAssert]:
        if self.peek().is_keyword("_Static_assert"):
            return self.parse_static_assert()
        loc = self.peek().loc
        specs = self.parse_decl_specs()
        if self.accept_punct(";"):
            return C.Declaration(specs, [], loc)
        decl = self.parse_declarator()
        # Function definition: declarator is a function and next is '{'.
        if self.peek().is_punct("{") and _declares_function(decl):
            name = _declarator_name(decl)
            self.declare(name, is_typedef=False)
            self.push_scope()
            for p in _function_params(decl):
                if p.declarator is not None:
                    self.declare(_declarator_name(p.declarator), False)
            body = self.parse_compound_statement(push=False)
            self.pop_scope()
            return C.FunctionDef(specs, decl, body, loc)
        is_typedef = "typedef" in specs.storage
        declarators = [self.parse_init_declarator_tail(decl, is_typedef)]
        while self.accept_punct(","):
            d = self.parse_declarator()
            declarators.append(self.parse_init_declarator_tail(d, is_typedef))
        self.expect_punct(";")
        return C.Declaration(specs, declarators, loc)

    def parse_init_declarator_tail(self, decl: C.Declarator,
                                   is_typedef: bool) -> C.InitDeclarator:
        name = _declarator_name(decl)
        self.declare(name, is_typedef)
        init: Optional[C.Initializer] = None
        if self.accept_punct("="):
            init = self.parse_initializer()
        return C.InitDeclarator(decl, init, decl.loc)

    def parse_static_assert(self) -> C.StaticAssert:
        loc = self.next().loc  # _Static_assert
        self.expect_punct("(")
        cond = self.parse_conditional()
        message = None
        if self.accept_punct(","):
            tok = self.peek()
            if tok.kind is not TokenKind.STRING:
                raise self.error("expected string literal in _Static_assert",
                                 iso="6.7.10")
            self.next()
            message = tok.value.decode() if isinstance(tok.value, bytes) \
                else tok.text
        self.expect_punct(")")
        self.expect_punct(";")
        return C.StaticAssert(cond, message, loc)

    # ---- declaration specifiers -------------------------------------------------

    def parse_decl_specs(self) -> C.DeclSpecs:
        specs = C.DeclSpecs(loc=self.peek().loc)
        saw_type_spec = False
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.KEYWORD:
                kw = tok.text
                if kw in _STORAGE_KEYWORDS:
                    specs.storage.append(self.next().text)
                    continue
                if kw in _QUALIFIER_KEYWORDS:
                    specs.qualifiers.append(self.next().text)
                    continue
                if kw in _FUNCTION_SPEC_KEYWORDS:
                    specs.functions.append(self.next().text)
                    continue
                if kw == "_Alignas":
                    self.next()
                    self.expect_punct("(")
                    if self.starts_type(self.peek()):
                        specs.alignment.append(self.parse_type_name())
                    else:
                        specs.alignment.append(self.parse_conditional())
                    self.expect_punct(")")
                    continue
                if kw in ("struct", "union"):
                    specs.type_specs.append(self.parse_struct_or_union())
                    saw_type_spec = True
                    continue
                if kw == "enum":
                    specs.type_specs.append(self.parse_enum())
                    saw_type_spec = True
                    continue
                if kw == "_Atomic":
                    # _Atomic(type) specifier vs _Atomic qualifier.
                    if self.peek(1).is_punct("("):
                        loc = self.next().loc
                        self.expect_punct("(")
                        tn = self.parse_type_name()
                        self.expect_punct(")")
                        specs.type_specs.append(C.TSAtomic(tn, loc=loc))
                        saw_type_spec = True
                    else:
                        specs.qualifiers.append(self.next().text)
                    continue
                if kw in _TYPE_SPEC_KEYWORDS:
                    specs.type_specs.append(
                        C.TSKeyword(self.next().text, loc=tok.loc))
                    saw_type_spec = True
                    continue
                break
            if (tok.kind is TokenKind.IDENT and not saw_type_spec
                    and self.is_typedef_name(tok.text)):
                specs.type_specs.append(
                    C.TSTypedefName(self.next().text, loc=tok.loc))
                saw_type_spec = True
                continue
            break
        if not specs.type_specs and not specs.storage and \
                not specs.qualifiers and not specs.functions and \
                not specs.alignment:
            raise self.error("expected declaration specifiers", iso="6.7")
        return specs

    def parse_struct_or_union(self) -> C.TSStructOrUnion:
        tok = self.next()
        is_union = tok.text == "union"
        tag: Optional[str] = None
        if self.peek().kind is TokenKind.IDENT:
            tag = self.next().text
        members: Optional[List[C.StructDeclaration]] = None
        if self.accept_punct("{"):
            members = []
            while not self.peek().is_punct("}"):
                if self.peek().is_keyword("_Static_assert"):
                    self.parse_static_assert()  # checked later; keep simple
                    continue
                members.append(self.parse_struct_declaration())
            self.expect_punct("}")
        if tag is None and members is None:
            raise self.error("struct/union with neither tag nor members",
                             tok, iso="6.7.2.1")
        return C.TSStructOrUnion(is_union, tag, members, loc=tok.loc)

    def parse_struct_declaration(self) -> C.StructDeclaration:
        loc = self.peek().loc
        specs = self.parse_decl_specs()
        declarators: List[Tuple[Optional[C.Declarator],
                                Optional[C.Expr]]] = []
        if not self.peek().is_punct(";"):
            while True:
                decl: Optional[C.Declarator] = None
                width: Optional[C.Expr] = None
                if not self.peek().is_punct(":"):
                    decl = self.parse_declarator()
                if self.accept_punct(":"):
                    width = self.parse_conditional()
                declarators.append((decl, width))
                if not self.accept_punct(","):
                    break
        self.expect_punct(";")
        return C.StructDeclaration(specs, declarators, loc)

    def parse_enum(self) -> C.TSEnum:
        tok = self.next()
        tag: Optional[str] = None
        if self.peek().kind is TokenKind.IDENT:
            tag = self.next().text
        enumerators: Optional[List[Tuple[str, Optional[C.Expr]]]] = None
        if self.accept_punct("{"):
            enumerators = []
            while True:
                name_tok = self.expect_ident()
                value: Optional[C.Expr] = None
                if self.accept_punct("="):
                    value = self.parse_conditional()
                enumerators.append((name_tok.text, value))
                self.declare(name_tok.text, is_typedef=False)
                if not self.accept_punct(","):
                    break
                if self.peek().is_punct("}"):
                    break  # trailing comma
            self.expect_punct("}")
        if tag is None and enumerators is None:
            raise self.error("enum with neither tag nor enumerators", tok,
                             iso="6.7.2.2")
        return C.TSEnum(tag, enumerators, loc=tok.loc)

    # ---- declarators -----------------------------------------------------------

    def parse_declarator(self, abstract: bool = False) -> C.Declarator:
        tok = self.peek()
        if tok.is_punct("*"):
            self.next()
            quals: List[str] = []
            while self.peek().is_keyword("const", "volatile", "restrict",
                                         "_Atomic"):
                quals.append(self.next().text)
            inner = self.parse_declarator(abstract)
            return C.DPointer(quals, inner, loc=tok.loc)
        return self.parse_direct_declarator(abstract)

    def parse_direct_declarator(self, abstract: bool) -> C.Declarator:
        tok = self.peek()
        base: C.Declarator
        if tok.kind is TokenKind.IDENT and not abstract:
            self.next()
            base = C.DIdent(tok.text, loc=tok.loc)
        elif tok.is_punct("(") and self._paren_is_declarator(abstract):
            self.next()
            base = self.parse_declarator(abstract)
            self.expect_punct(")")
        else:
            base = C.DIdent(None, loc=tok.loc)
        return self.parse_declarator_suffixes(base)

    def _paren_is_declarator(self, abstract: bool) -> bool:
        """Disambiguate `(` in a (possibly abstract) declarator: it opens a
        nested declarator unless it starts a parameter list."""
        nxt = self.peek(1)
        if nxt.is_punct(")"):
            return False  # `()` is an empty parameter list
        if self.starts_declaration(nxt):
            return False  # parameter list
        if not abstract:
            return True
        return nxt.is_punct("*", "(", "[")

    def parse_declarator_suffixes(self, base: C.Declarator) -> C.Declarator:
        while True:
            tok = self.peek()
            if tok.is_punct("["):
                self.next()
                quals: List[str] = []
                is_static = False
                while self.peek().is_keyword("const", "volatile", "restrict",
                                             "static"):
                    t = self.next().text
                    if t == "static":
                        is_static = True
                    else:
                        quals.append(t)
                if self.accept_punct("*"):
                    self.expect_punct("]")
                    base = C.DArray(base, None, quals, is_static,
                                    is_star=True, loc=tok.loc)
                    continue
                size: Optional[C.Expr] = None
                if not self.peek().is_punct("]"):
                    size = self.parse_assignment()
                self.expect_punct("]")
                base = C.DArray(base, size, quals, is_static, loc=tok.loc)
            elif tok.is_punct("("):
                self.next()
                params, variadic, ident_list = self.parse_param_list()
                base = C.DFunction(base, params, variadic, ident_list,
                                   loc=tok.loc)
            else:
                return base

    def parse_param_list(
            self) -> Tuple[List[C.ParamDecl], bool, Optional[List[str]]]:
        if self.accept_punct(")"):
            return [], False, []  # () — no prototype
        # K&R identifier list? (ident, ident, ...) where idents aren't types.
        if (self.peek().kind is TokenKind.IDENT
                and not self.is_typedef_name(self.peek().text)):
            idents = [self.next().text]
            while self.accept_punct(","):
                idents.append(self.expect_ident().text)
            self.expect_punct(")")
            return [], False, idents
        params: List[C.ParamDecl] = []
        variadic = False
        self.push_scope()
        while True:
            if self.accept_punct("..."):
                variadic = True
                break
            loc = self.peek().loc
            specs = self.parse_decl_specs()
            decl: Optional[C.Declarator] = None
            if not (self.peek().is_punct(",") or self.peek().is_punct(")")):
                decl = self.parse_declarator_maybe_abstract()
                self.declare(_declarator_name(decl), is_typedef=False)
            params.append(C.ParamDecl(specs, decl, loc))
            if not self.accept_punct(","):
                break
        self.pop_scope()
        self.expect_punct(")")
        return params, variadic, None

    def parse_declarator_maybe_abstract(self) -> C.Declarator:
        """Parameter declarators may be concrete or abstract; we parse
        permissively (the grammar union), since Cabs records both the
        same way."""
        return self.parse_declarator(abstract=True) \
            if self._looks_abstract() else self.parse_declarator()

    def _looks_abstract(self) -> bool:
        """Peek whether the upcoming declarator has no identifier."""
        depth = 0
        j = self.i
        while j < len(self.toks):
            tok = self.toks[j]
            if tok.kind is TokenKind.IDENT:
                return self.is_typedef_name(tok.text)
            if tok.is_punct("*") or tok.kind is TokenKind.KEYWORD:
                j += 1
                continue
            if tok.is_punct("("):
                depth += 1
                j += 1
                continue
            if tok.is_punct("["):
                return True
            if tok.is_punct(")") or tok.is_punct(","):
                return True
            return True
        return True

    def parse_type_name(self) -> C.TypeName:
        loc = self.peek().loc
        specs = self.parse_decl_specs()
        decl: Optional[C.Declarator] = None
        if not (self.peek().is_punct(")") or self.peek().is_punct(",")):
            decl = self.parse_declarator(abstract=True)
        return C.TypeName(specs, decl, loc)

    # ---- initializers -----------------------------------------------------------

    def parse_initializer(self) -> C.Initializer:
        tok = self.peek()
        if tok.is_punct("{"):
            return self.parse_initializer_list()
        return C.InitExpr(self.parse_assignment(), loc=tok.loc)

    def parse_initializer_list(self) -> C.InitList:
        loc = self.expect_punct("{").loc
        items: List[Tuple[List[C.Designator], C.Initializer]] = []
        while not self.peek().is_punct("}"):
            designators: List[C.Designator] = []
            while True:
                tok = self.peek()
                if tok.is_punct("."):
                    self.next()
                    name = self.expect_ident().text
                    designators.append(C.DesignMember(name, loc=tok.loc))
                elif tok.is_punct("["):
                    self.next()
                    idx = self.parse_conditional()
                    self.expect_punct("]")
                    designators.append(C.DesignIndex(idx, loc=tok.loc))
                else:
                    break
            if designators:
                self.expect_punct("=")
            items.append((designators, self.parse_initializer()))
            if not self.accept_punct(","):
                break
        self.expect_punct("}")
        return C.InitList(items, loc=loc)

    # ---- statements ---------------------------------------------------------------

    def parse_compound_statement(self, push: bool = True) -> C.SCompound:
        loc = self.expect_punct("{").loc
        if push:
            self.push_scope()
        items: List[Union[C.Declaration, C.Stmt, C.StaticAssert]] = []
        while not self.peek().is_punct("}"):
            if self.at_eof():
                raise self.error("unterminated compound statement",
                                 iso="6.8.2")
            items.append(self.parse_block_item())
        self.expect_punct("}")
        if push:
            self.pop_scope()
        return C.SCompound(items, loc=loc)

    def parse_block_item(self) -> Union[C.Declaration, C.Stmt,
                                        C.StaticAssert]:
        tok = self.peek()
        if tok.is_keyword("_Static_assert"):
            return self.parse_static_assert()
        if self.starts_declaration(tok):
            # `T;` `T x;` etc. But beware `x:` labels — identifiers
            # followed by ':' are labels even if typedef'd.
            if not (tok.kind is TokenKind.IDENT
                    and self.peek(1).is_punct(":")):
                return self.parse_declaration()
        return self.parse_statement()

    def parse_declaration(self) -> C.Declaration:
        loc = self.peek().loc
        specs = self.parse_decl_specs()
        declarators: List[C.InitDeclarator] = []
        is_typedef = "typedef" in specs.storage
        if not self.peek().is_punct(";"):
            while True:
                d = self.parse_declarator()
                declarators.append(
                    self.parse_init_declarator_tail(d, is_typedef))
                if not self.accept_punct(","):
                    break
        self.expect_punct(";")
        return C.Declaration(specs, declarators, loc)

    def parse_statement(self) -> C.Stmt:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT and self.peek(1).is_punct(":"):
            self.next()
            self.next()
            body = self.parse_statement()
            return C.SLabeled(tok.text, body, loc=tok.loc)
        if tok.is_keyword("case"):
            self.next()
            expr = self.parse_conditional()
            self.expect_punct(":")
            return C.SCase(expr, self.parse_statement(), loc=tok.loc)
        if tok.is_keyword("default"):
            self.next()
            self.expect_punct(":")
            return C.SDefault(self.parse_statement(), loc=tok.loc)
        if tok.is_punct("{"):
            return self.parse_compound_statement()
        if tok.is_punct(";"):
            self.next()
            return C.SExpr(None, loc=tok.loc)
        if tok.is_keyword("if"):
            self.next()
            self.expect_punct("(")
            cond = self.parse_expression()
            self.expect_punct(")")
            then = self.parse_statement()
            els: Optional[C.Stmt] = None
            if self.peek().is_keyword("else"):
                self.next()
                els = self.parse_statement()
            return C.SIf(cond, then, els, loc=tok.loc)
        if tok.is_keyword("switch"):
            self.next()
            self.expect_punct("(")
            cond = self.parse_expression()
            self.expect_punct(")")
            return C.SSwitch(cond, self.parse_statement(), loc=tok.loc)
        if tok.is_keyword("while"):
            self.next()
            self.expect_punct("(")
            cond = self.parse_expression()
            self.expect_punct(")")
            return C.SWhile(cond, self.parse_statement(), loc=tok.loc)
        if tok.is_keyword("do"):
            self.next()
            body = self.parse_statement()
            if not self.peek().is_keyword("while"):
                raise self.error("expected 'while' after do-body",
                                 iso="6.8.5")
            self.next()
            self.expect_punct("(")
            cond = self.parse_expression()
            self.expect_punct(")")
            self.expect_punct(";")
            return C.SDoWhile(body, cond, loc=tok.loc)
        if tok.is_keyword("for"):
            return self.parse_for()
        if tok.is_keyword("goto"):
            self.next()
            label = self.expect_ident().text
            self.expect_punct(";")
            return C.SGoto(label, loc=tok.loc)
        if tok.is_keyword("continue"):
            self.next()
            self.expect_punct(";")
            return C.SContinue(loc=tok.loc)
        if tok.is_keyword("break"):
            self.next()
            self.expect_punct(";")
            return C.SBreak(loc=tok.loc)
        if tok.is_keyword("return"):
            self.next()
            expr: Optional[C.Expr] = None
            if not self.peek().is_punct(";"):
                expr = self.parse_expression()
            self.expect_punct(";")
            return C.SReturn(expr, loc=tok.loc)
        expr = self.parse_expression()
        self.expect_punct(";")
        return C.SExpr(expr, loc=tok.loc)

    def parse_for(self) -> C.SFor:
        loc = self.next().loc  # for
        self.expect_punct("(")
        self.push_scope()
        init: Optional[Union[C.Declaration, C.Expr]] = None
        if self.accept_punct(";"):
            pass
        elif self.starts_declaration(self.peek()):
            init = self.parse_declaration()
        else:
            init = self.parse_expression()
            self.expect_punct(";")
        cond: Optional[C.Expr] = None
        if not self.peek().is_punct(";"):
            cond = self.parse_expression()
        self.expect_punct(";")
        step: Optional[C.Expr] = None
        if not self.peek().is_punct(")"):
            step = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        self.pop_scope()
        return C.SFor(init, cond, step, body, loc=loc)

    # ---- expressions -----------------------------------------------------------

    def parse_expression(self) -> C.Expr:
        expr = self.parse_assignment()
        while self.peek().is_punct(","):
            loc = self.next().loc
            rhs = self.parse_assignment()
            expr = C.EComma(expr, rhs, loc=loc)
        return expr

    def parse_assignment(self) -> C.Expr:
        lhs = self.parse_conditional()
        tok = self.peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self.next()
            rhs = self.parse_assignment()
            return C.EAssign(tok.text, lhs, rhs, loc=tok.loc)
        return lhs

    def parse_conditional(self) -> C.Expr:
        cond = self.parse_binary(1)
        tok = self.peek()
        if tok.is_punct("?"):
            self.next()
            then = self.parse_expression()
            self.expect_punct(":")
            els = self.parse_conditional()
            return C.EConditional(cond, then, els, loc=tok.loc)
        return cond

    def parse_binary(self, min_prec: int) -> C.Expr:
        lhs = self.parse_cast_expression()
        while True:
            tok = self.peek()
            prec = _BINOP_PREC.get(tok.text) \
                if tok.kind is TokenKind.PUNCT else None
            if prec is None or prec < min_prec:
                return lhs
            self.next()
            rhs = self.parse_binary(prec + 1)
            lhs = C.EBinary(tok.text, lhs, rhs, loc=tok.loc)

    def parse_cast_expression(self) -> C.Expr:
        tok = self.peek()
        if tok.is_punct("(") and self.starts_type(self.peek(1)):
            self.next()
            tn = self.parse_type_name()
            self.expect_punct(")")
            if self.peek().is_punct("{"):
                init = self.parse_initializer_list()
                lit = C.ECompoundLiteral(tn, init, loc=tok.loc)
                return self.parse_postfix_suffixes(lit)
            operand = self.parse_cast_expression()
            return C.ECast(tn, operand, loc=tok.loc)
        return self.parse_unary()

    def parse_unary(self) -> C.Expr:
        tok = self.peek()
        if tok.is_punct("++") or tok.is_punct("--"):
            self.next()
            operand = self.parse_unary()
            return C.EPreIncr(operand, tok.text, loc=tok.loc)
        if tok.kind is TokenKind.PUNCT and tok.text in "&*+-~!":
            self.next()
            operand = self.parse_cast_expression()
            return C.EUnary(tok.text, operand, loc=tok.loc)
        if tok.is_keyword("sizeof"):
            self.next()
            if self.peek().is_punct("(") and self.starts_type(self.peek(1)):
                self.next()
                tn = self.parse_type_name()
                self.expect_punct(")")
                return C.ESizeofType(tn, loc=tok.loc)
            return C.ESizeofExpr(self.parse_unary(), loc=tok.loc)
        if tok.is_keyword("_Alignof"):
            self.next()
            self.expect_punct("(")
            tn = self.parse_type_name()
            self.expect_punct(")")
            return C.EAlignofType(tn, loc=tok.loc)
        return self.parse_postfix()

    def parse_postfix(self) -> C.Expr:
        return self.parse_postfix_suffixes(self.parse_primary())

    def parse_postfix_suffixes(self, expr: C.Expr) -> C.Expr:
        while True:
            tok = self.peek()
            if tok.is_punct("["):
                self.next()
                idx = self.parse_expression()
                self.expect_punct("]")
                expr = C.EIndex(expr, idx, loc=tok.loc)
            elif tok.is_punct("("):
                self.next()
                args: List[C.Expr] = []
                if not self.peek().is_punct(")"):
                    args.append(self.parse_assignment())
                    while self.accept_punct(","):
                        args.append(self.parse_assignment())
                self.expect_punct(")")
                expr = C.ECall(expr, args, loc=tok.loc)
            elif tok.is_punct(".") or tok.is_punct("->"):
                self.next()
                member = self.expect_ident().text
                expr = C.EMember(expr, member, tok.text == "->",
                                 loc=tok.loc)
            elif tok.is_punct("++") or tok.is_punct("--"):
                self.next()
                expr = C.EPostIncr(expr, tok.text, loc=tok.loc)
            else:
                return expr

    def parse_primary(self) -> C.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            self.next()
            if tok.text == "__cerberus_offsetof" and self.peek().is_punct(
                    "("):
                self.next()
                tn = self.parse_type_name()
                self.expect_punct(",")
                member = self.expect_ident().text
                self.expect_punct(")")
                return C.EOffsetof(tn, member, loc=tok.loc)
            return C.EIdent(tok.text, loc=tok.loc)
        if tok.kind is TokenKind.NUMBER:
            self.next()
            return _parse_number(tok)
        if tok.kind is TokenKind.CHAR_CONST:
            self.next()
            return C.ECharConst(tok.text, int(tok.value),
                                tok.text.startswith("L"), loc=tok.loc)
        if tok.kind is TokenKind.STRING:
            # Phase 6: concatenate adjacent string literals.
            parts: List[bytes] = []
            wide = False
            text_parts: List[str] = []
            while self.peek().kind is TokenKind.STRING:
                t = self.next()
                parts.append(t.value if isinstance(t.value, bytes) else b"")
                text_parts.append(t.text)
                wide = wide or t.text.startswith(("L", "u", "U"))
            return C.EStringLit(" ".join(text_parts), b"".join(parts), wide,
                                loc=tok.loc)
        if tok.is_punct("("):
            self.next()
            inner = self.parse_expression()
            self.expect_punct(")")
            return C.EParen(inner, loc=tok.loc)
        if tok.is_keyword("_Generic"):
            return self.parse_generic()
        raise self.error("expected expression", iso="6.5.1")

    def parse_generic(self) -> C.EGeneric:
        loc = self.next().loc
        self.expect_punct("(")
        control = self.parse_assignment()
        assocs: List[Tuple[Optional[C.TypeName], C.Expr]] = []
        while self.accept_punct(","):
            if self.peek().is_keyword("default"):
                self.next()
                self.expect_punct(":")
                assocs.append((None, self.parse_assignment()))
            else:
                tn = self.parse_type_name()
                self.expect_punct(":")
                assocs.append((tn, self.parse_assignment()))
        self.expect_punct(")")
        return C.EGeneric(control, assocs, loc=loc)


# ---- helpers over declarators ------------------------------------------------

def _declarator_name(decl: C.Declarator) -> Optional[str]:
    while True:
        if isinstance(decl, C.DIdent):
            return decl.name
        if isinstance(decl, (C.DPointer, C.DArray, C.DFunction)):
            decl = decl.inner
        else:
            return None


def _declares_function(decl: C.Declarator) -> bool:
    """True when the outermost derivation applied to the identifier is a
    function — i.e. this is a function declarator."""
    # Walk inwards; the declarator declares a function iff we reach a
    # DFunction whose inner chain is only DIdent (possibly via parens).
    while isinstance(decl, C.DPointer):
        # `T *f(...)` — pointer applies to the return type; keep walking.
        decl = decl.inner
    if isinstance(decl, C.DFunction):
        inner = decl.inner
        while isinstance(inner, C.DIdent):
            return True
        return isinstance(inner, C.DIdent)
    return False


def _function_params(decl: C.Declarator) -> List[C.ParamDecl]:
    while not isinstance(decl, C.DIdent):
        if isinstance(decl, C.DFunction):
            return decl.params
        decl = decl.inner  # type: ignore[attr-defined]
    return []


def _parse_number(tok: Token) -> C.Expr:
    """Classify a pp-number as an integer or floating constant
    (§6.4.4.1, §6.4.4.2)."""
    text = tok.text
    lowered = text.lower()
    is_float = False
    if lowered.startswith("0x"):
        if "p" in lowered:
            is_float = True
        elif "." in lowered:
            is_float = True
    else:
        if "." in lowered or (("e" in lowered) and not
                              lowered.startswith("0x")):
            is_float = True
    if is_float:
        body = text
        suffix = ""
        if body[-1] in "fFlL":
            suffix = body[-1].lower()
            body = body[:-1]
        try:
            value = float.fromhex(body) if body.lower().startswith("0x") \
                else float(body)
        except ValueError:
            raise ParseError(f"bad floating constant '{text}'", tok.loc,
                             iso="6.4.4.2") from None
        return C.EFloatConst(text, value, suffix, loc=tok.loc)
    body = text
    suffix = ""
    while body and body[-1] in "uUlL":
        suffix = body[-1].lower() + suffix
        body = body[:-1]
    norm_suffix = suffix.replace("ll", "L")
    # normalise to one of "", u, l, ul, ll, ull
    has_u = "u" in norm_suffix
    has_ll = "L" in norm_suffix
    has_l = "l" in norm_suffix
    if has_ll:
        suffix = "ull" if has_u else "ll"
    elif has_l:
        suffix = "ul" if has_u else "l"
    else:
        suffix = "u" if has_u else ""
    try:
        if body.lower().startswith("0x"):
            value, base = int(body, 16), 16
        elif body.startswith("0") and len(body) > 1:
            value, base = int(body, 8), 8
        else:
            value, base = int(body, 10), 10
    except ValueError:
        raise ParseError(f"bad integer constant '{text}'", tok.loc,
                         iso="6.4.4.1") from None
    return C.EIntConst(text, value, base, suffix, loc=tok.loc)


def parse_tokens(tokens: List[Token]) -> C.TranslationUnit:
    return Parser(tokens).parse_translation_unit()


def parse_text(text: str, name: str = "<string>",
               predefined=None) -> C.TranslationUnit:
    """Preprocess and parse C source text into a Cabs translation unit."""
    from ..cpp.preprocessor import preprocess
    return parse_tokens(preprocess(text, name, predefined=predefined))
