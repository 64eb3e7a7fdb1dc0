#include "sqldb/parser.h"

#include <array>
#include <cstddef>
#include <memory_resource>

#include "sqldb/lexer.h"

namespace p3pdb::sqldb {

namespace {

// Stack bytes backing the parser's list scratch; enough for the
// translators' rule queries without touching the heap.
constexpr size_t kScratchBytes = 4096;

class Parser {
 public:
  Parser(std::string_view sql, TokenList tokens)
      : sql_(sql),
        tokens_(std::move(tokens)),
        scratch_(scratch_buffer_.data(), scratch_buffer_.size()),
        exprs_(&scratch_),
        items_(&scratch_),
        refs_(&scratch_),
        order_(&scratch_) {
    exprs_.reserve(32);
    items_.reserve(8);
    refs_.reserve(8);
    order_.reserve(4);
  }

  /// The whole input is one statement; its arena copies all of it (the
  /// plan cache keys on that copy).
  Result<std::unique_ptr<Statement>> ParseSingle() {
    P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                           ParseStatement(/*whole_input=*/true));
    Consume(TokenType::kSemicolon);
    if (Current().type != TokenType::kEnd) {
      return ErrorHere("unexpected input after statement");
    }
    return stmt;
  }

  Result<std::vector<std::unique_ptr<Statement>>> ParseAll() {
    std::vector<std::unique_ptr<Statement>> out;
    for (;;) {
      while (Consume(TokenType::kSemicolon)) {
      }
      if (Current().type == TokenType::kEnd) break;
      P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                             ParseStatement(/*whole_input=*/false));
      out.push_back(std::move(stmt));
      if (Current().type != TokenType::kEnd &&
          !Consume(TokenType::kSemicolon)) {
        return ErrorHere("expected ';' between statements");
      }
    }
    return out;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  const Token& Peek(size_t ahead) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool Consume(TokenType type) {
    if (Current().type == type) {
      Advance();
      return true;
    }
    return false;
  }

  bool ConsumeKeyword(Keyword kw) {
    if (Current().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(Keyword kw) {
    if (!ConsumeKeyword(kw)) {
      return ErrorHere("expected " + std::string(KeywordSpelling(kw)));
    }
    return Status::OK();
  }

  Status Expect(TokenType type, std::string_view what) {
    if (!Consume(type)) return ErrorHere("expected " + std::string(what));
    return Status::OK();
  }

  Status ErrorHere(std::string msg) const {
    return Status::ParseError(msg + " near offset " +
                              std::to_string(Current().offset) +
                              (Current().text.empty()
                                   ? std::string(" (end of input)")
                                   : " ('" + std::string(Current().text) +
                                         "')"));
  }

  /// The current identifier, as a view into the arena's text copy.
  Result<std::string_view> ExpectIdentifier(std::string_view what) {
    if (Current().type != TokenType::kIdentifier) {
      return ErrorHere("expected " + std::string(what));
    }
    std::string_view name = Name(Current());
    Advance();
    return name;
  }

  /// An identifier token's spelling in the arena's text copy (identifiers
  /// are always views into the input, never decoded).
  std::string_view Name(const Token& tok) const {
    return arena_->text().substr(tok.offset - text_offset_, tok.text.size());
  }

  /// Places a node in the current statement's arena.
  template <typename T, typename... Args>
  ArenaPtr<T> New(Args&&... args) {
    return arena_->New<T>(std::forward<Args>(args)...);
  }

  /// Moves the elements a list pushed onto `stack` since `start` into the
  /// arena, at their final count, and pops them. Lists nest (an IN list
  /// inside an operand list), but an inner list always finishes before its
  /// parent pushes again, so one stack per element type suffices.
  template <typename T>
  ArenaVector<T> Finish(std::pmr::vector<T>* stack, size_t start) {
    ArenaVector<T> list =
        arena_->MoveArray(stack->data() + start, stack->size() - start);
    stack->erase(stack->begin() + static_cast<ptrdiff_t>(start),
                 stack->end());
    return list;
  }

  /// Byte offset just past the statement the current token starts: the
  /// next ';' or the end of input.
  size_t StatementEnd() const {
    size_t end = pos_;
    while (tokens_[end].type != TokenType::kSemicolon &&
           tokens_[end].type != TokenType::kEnd) {
      ++end;
    }
    return tokens_[end].offset;
  }

  // ---- statements ----

  /// Parses one root statement into a fresh arena holding a copy of its
  /// text (the whole input, or in a script the statement's own span) and
  /// sized from it. The root and every node below it live in the arena;
  /// the returned pointer's deleter deletes the arena.
  Result<std::unique_ptr<Statement>> ParseStatement(bool whole_input) {
    param_count_ = 0;
    text_offset_ = whole_input ? 0 : Current().offset;
    const size_t end = whole_input ? sql_.size() : StatementEnd();
    arena_ = StatementArena::ForText(
        sql_.substr(text_offset_, end - text_offset_));
    P3PDB_ASSIGN_OR_RETURN(Statement * stmt, ParseRoot());
    stmt->arena = arena_.release();
    return std::unique_ptr<Statement>(stmt);
  }

  /// The root is placed in the arena like every node. The DML and DDL roots
  /// own strings and vectors, so they are placed finalized.
  Result<Statement*> ParseRoot() {
    if (Current().IsKeyword(Keyword::kSelect)) {
      SelectStmt* sel = New<SelectStmt>().release();
      P3PDB_RETURN_IF_ERROR(ParseSelectBody(sel));
      sel->param_count = param_count_;
      return sel;
    }
    if (ConsumeKeyword(Keyword::kExplain)) {
      ExplainStmt* explain = New<ExplainStmt>().release();
      explain->analyze = ConsumeKeyword(Keyword::kAnalyze);
      P3PDB_ASSIGN_OR_RETURN(explain->select, ParseSubquery());
      explain->select->param_count = param_count_;
      return explain;
    }
    if (ConsumeKeyword(Keyword::kInsert)) return ParseInsert();
    if (ConsumeKeyword(Keyword::kUpdate)) return ParseUpdate();
    if (ConsumeKeyword(Keyword::kDelete)) return ParseDelete();
    if (ConsumeKeyword(Keyword::kCreate)) return ParseCreate();
    if (ConsumeKeyword(Keyword::kDrop)) return ParseDrop();
    return ErrorHere("expected a SQL statement");
  }

  /// A SELECT below the root (EXISTS subquery, EXPLAIN target), placed in
  /// the arena.
  Result<ArenaPtr<SelectStmt>> ParseSubquery() {
    ArenaPtr<SelectStmt> select = New<SelectStmt>();
    P3PDB_RETURN_IF_ERROR(ParseSelectBody(select.get()));
    return select;
  }

  Status ParseSelectBody(SelectStmt* select) {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kSelect));
    if (ConsumeKeyword(Keyword::kDistinct)) select->distinct = true;

    // Select list.
    const size_t items_start = items_.size();
    for (;;) {
      SelectItem item;
      if (Consume(TokenType::kStar)) {
        item.is_star = true;
      } else {
        P3PDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword(Keyword::kAs)) {
          P3PDB_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
        }
      }
      items_.push_back(std::move(item));
      if (!Consume(TokenType::kComma)) break;
    }
    select->items = Finish(&items_, items_start);

    if (ConsumeKeyword(Keyword::kFrom)) {
      const size_t refs_start = refs_.size();
      for (;;) {
        TableRef ref;
        P3PDB_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier("table name"));
        // Optional alias: a bare identifier that is not a clause keyword.
        if (Current().type == TokenType::kIdentifier && !IsClauseKeyword()) {
          ref.alias = Name(Current());
          Advance();
        } else {
          ref.alias = ref.table_name;
        }
        refs_.push_back(ref);
        if (!Consume(TokenType::kComma)) break;
      }
      select->from = Finish(&refs_, refs_start);
    }

    if (ConsumeKeyword(Keyword::kWhere)) {
      P3PDB_ASSIGN_OR_RETURN(select->where, ParseExpr());
    }
    if (Current().IsKeyword(Keyword::kGroup)) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kBy));
      const size_t start = exprs_.size();
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        exprs_.push_back(std::move(e));
        if (!Consume(TokenType::kComma)) break;
      }
      select->group_by = Finish(&exprs_, start);
    }
    if (Current().IsKeyword(Keyword::kOrder)) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kBy));
      const size_t start = order_.size();
      for (;;) {
        OrderByItem item;
        P3PDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword(Keyword::kDesc)) {
          item.ascending = false;
        } else {
          ConsumeKeyword(Keyword::kAsc);
        }
        order_.push_back(std::move(item));
        if (!Consume(TokenType::kComma)) break;
      }
      select->order_by = Finish(&order_, start);
    }
    if (ConsumeKeyword(Keyword::kLimit)) {
      if (Current().type != TokenType::kInteger) {
        return ErrorHere("expected LIMIT count");
      }
      select->limit = Current().int_value;
      Advance();
    }
    return Status::OK();
  }

  bool IsClauseKeyword() const {
    switch (Current().keyword) {
      case Keyword::kWhere:
      case Keyword::kGroup:
      case Keyword::kOrder:
      case Keyword::kLimit:
      case Keyword::kOn:
      case Keyword::kSet:
      case Keyword::kAnd:
      case Keyword::kOr:
      case Keyword::kAs:
      case Keyword::kFrom:
      case Keyword::kValues:
      case Keyword::kUnion:
        return true;
      default:
        return false;
    }
  }

  Result<Statement*> ParseInsert() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kInto));
    auto* insert = arena_->NewFinalized<InsertStmt>();
    P3PDB_ASSIGN_OR_RETURN(insert->table_name,
                           ExpectIdentifier("table name"));
    if (Consume(TokenType::kLeftParen)) {
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(std::string_view col,
                               ExpectIdentifier("column name"));
        insert->columns.emplace_back(col);
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
    }
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kValues));
    for (;;) {
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
      std::vector<ExprPtr> row;
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      insert->rows.push_back(std::move(row));
      if (!Consume(TokenType::kComma)) break;
    }
    return insert;
  }

  Result<Statement*> ParseUpdate() {
    auto* update = arena_->NewFinalized<UpdateStmt>();
    P3PDB_ASSIGN_OR_RETURN(update->table_name,
                           ExpectIdentifier("table name"));
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kSet));
    for (;;) {
      UpdateStmt::Assignment assignment;
      P3PDB_ASSIGN_OR_RETURN(assignment.column,
                             ExpectIdentifier("column name"));
      if (Current().type != TokenType::kOperator || Current().text != "=") {
        return ErrorHere("expected '=' in SET");
      }
      Advance();
      P3PDB_ASSIGN_OR_RETURN(assignment.value, ParseExpr());
      update->assignments.push_back(std::move(assignment));
      if (!Consume(TokenType::kComma)) break;
    }
    if (ConsumeKeyword(Keyword::kWhere)) {
      P3PDB_ASSIGN_OR_RETURN(update->where, ParseExpr());
    }
    return update;
  }

  Result<Statement*> ParseDelete() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kFrom));
    auto* del = arena_->NewFinalized<DeleteStmt>();
    P3PDB_ASSIGN_OR_RETURN(del->table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword(Keyword::kWhere)) {
      P3PDB_ASSIGN_OR_RETURN(del->where, ParseExpr());
    }
    return del;
  }

  Result<Statement*> ParseCreate() {
    bool unique = ConsumeKeyword(Keyword::kUnique);
    if (ConsumeKeyword(Keyword::kIndex)) {
      auto* ci = arena_->NewFinalized<CreateIndexStmt>();
      ci->unique = unique;
      P3PDB_ASSIGN_OR_RETURN(ci->index_name, ExpectIdentifier("index name"));
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kOn));
      P3PDB_ASSIGN_OR_RETURN(ci->table_name, ExpectIdentifier("table name"));
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(std::string_view col,
                               ExpectIdentifier("column name"));
        ci->columns.emplace_back(col);
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      return ci;
    }
    if (unique) return ErrorHere("expected INDEX after UNIQUE");
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kTable));
    auto* ct = arena_->NewFinalized<CreateTableStmt>();
    if (Current().IsKeyword(Keyword::kIf)) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kNot));
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kExists));
      ct->if_not_exists = true;
    }
    P3PDB_ASSIGN_OR_RETURN(std::string_view table_name,
                           ExpectIdentifier("table name"));
    P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
    std::vector<ColumnDef> columns;
    std::vector<std::string> primary_key;
    std::vector<ForeignKeyDef> fks;
    for (;;) {
      if (Current().IsKeyword(Keyword::kPrimary)) {
        Advance();
        P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kKey));
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
        for (;;) {
          P3PDB_ASSIGN_OR_RETURN(std::string_view col,
                                 ExpectIdentifier("column name"));
          primary_key.emplace_back(col);
          if (!Consume(TokenType::kComma)) break;
        }
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      } else if (Current().IsKeyword(Keyword::kForeign)) {
        Advance();
        P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kKey));
        ForeignKeyDef fk;
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
        for (;;) {
          P3PDB_ASSIGN_OR_RETURN(std::string_view col,
                                 ExpectIdentifier("column name"));
          fk.columns.emplace_back(col);
          if (!Consume(TokenType::kComma)) break;
        }
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
        P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kReferences));
        P3PDB_ASSIGN_OR_RETURN(fk.referenced_table,
                               ExpectIdentifier("table name"));
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
        for (;;) {
          P3PDB_ASSIGN_OR_RETURN(std::string_view col,
                                 ExpectIdentifier("column name"));
          fk.referenced_columns.emplace_back(col);
          if (!Consume(TokenType::kComma)) break;
        }
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
        fks.push_back(std::move(fk));
      } else {
        ColumnDef col;
        P3PDB_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
        if (ConsumeKeyword(Keyword::kInteger) ||
            ConsumeKeyword(Keyword::kInt) ||
            ConsumeKeyword(Keyword::kBigint)) {
          col.type = ColumnType::kInteger;
        } else if (ConsumeKeyword(Keyword::kVarchar) ||
                   ConsumeKeyword(Keyword::kChar)) {
          col.type = ColumnType::kText;
          if (Consume(TokenType::kLeftParen)) {
            if (Current().type != TokenType::kInteger) {
              return ErrorHere("expected length");
            }
            Advance();
            P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
          }
        } else if (ConsumeKeyword(Keyword::kText) ||
                   ConsumeKeyword(Keyword::kClob)) {
          col.type = ColumnType::kText;
        } else {
          return ErrorHere("expected column type");
        }
        if (Current().IsKeyword(Keyword::kNot)) {
          Advance();
          P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kNull));
          col.nullable = false;
        } else {
          ConsumeKeyword(Keyword::kNull);
        }
        columns.push_back(std::move(col));
      }
      if (!Consume(TokenType::kComma)) break;
    }
    P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
    ct->schema = TableSchema(std::string(table_name), std::move(columns));
    ct->schema.set_primary_key(std::move(primary_key));
    for (ForeignKeyDef& fk : fks) ct->schema.AddForeignKey(std::move(fk));
    return ct;
  }

  Result<Statement*> ParseDrop() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kTable));
    auto* drop = arena_->NewFinalized<DropTableStmt>();
    if (Current().IsKeyword(Keyword::kIf)) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kExists));
      drop->if_exists = true;
    }
    P3PDB_ASSIGN_OR_RETURN(drop->table_name, ExpectIdentifier("table name"));
    return drop;
  }

  // ---- expressions ----

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    P3PDB_ASSIGN_OR_RETURN(ExprPtr first, ParseAnd());
    if (!Current().IsKeyword(Keyword::kOr)) return first;
    const size_t start = exprs_.size();
    exprs_.push_back(std::move(first));
    while (ConsumeKeyword(Keyword::kOr)) {
      P3PDB_ASSIGN_OR_RETURN(ExprPtr next, ParseAnd());
      exprs_.push_back(std::move(next));
    }
    return ExprPtr(
        New<LogicalExpr>(/*and_op=*/false, Finish(&exprs_, start)));
  }

  Result<ExprPtr> ParseAnd() {
    P3PDB_ASSIGN_OR_RETURN(ExprPtr first, ParseNot());
    if (!Current().IsKeyword(Keyword::kAnd)) return first;
    const size_t start = exprs_.size();
    exprs_.push_back(std::move(first));
    while (ConsumeKeyword(Keyword::kAnd)) {
      P3PDB_ASSIGN_OR_RETURN(ExprPtr next, ParseNot());
      exprs_.push_back(std::move(next));
    }
    return ExprPtr(
        New<LogicalExpr>(/*and_op=*/true, Finish(&exprs_, start)));
  }

  Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword(Keyword::kNot)) {
      // NOT EXISTS folds into the ExistsExpr.
      if (Current().IsKeyword(Keyword::kExists)) {
        Advance();
        return ParseExistsBody(/*negated=*/true);
      }
      P3PDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      return ExprPtr(New<NotExpr>(std::move(inner)));
    }
    return ParsePredicate();
  }

  Result<ExprPtr> ParseExistsBody(bool negated) {
    P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'(' after EXISTS"));
    P3PDB_ASSIGN_OR_RETURN(ArenaPtr<SelectStmt> sub, ParseSubquery());
    P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
    return ExprPtr(New<ExistsExpr>(negated, std::move(sub)));
  }

  Result<ExprPtr> ParsePredicate() {
    if (ConsumeKeyword(Keyword::kExists)) {
      return ParseExistsBody(/*negated=*/false);
    }
    P3PDB_ASSIGN_OR_RETURN(ExprPtr left, ParsePrimary());

    if (Current().type == TokenType::kOperator) {
      CompareOp op;
      const std::string_view sym = Current().text;
      if (sym == "=") {
        op = CompareOp::kEq;
      } else if (sym == "<>") {
        op = CompareOp::kNe;
      } else if (sym == "<") {
        op = CompareOp::kLt;
      } else if (sym == "<=") {
        op = CompareOp::kLe;
      } else if (sym == ">") {
        op = CompareOp::kGt;
      } else {
        op = CompareOp::kGe;
      }
      Advance();
      P3PDB_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
      return ExprPtr(
          New<ComparisonExpr>(op, std::move(left), std::move(right)));
    }
    if (Current().IsKeyword(Keyword::kIs)) {
      Advance();
      bool negated = ConsumeKeyword(Keyword::kNot);
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kNull));
      return ExprPtr(New<IsNullExpr>(std::move(left), negated));
    }
    bool negated = false;
    if (Current().IsKeyword(Keyword::kNot) &&
        (Peek(1).IsKeyword(Keyword::kIn) ||
         Peek(1).IsKeyword(Keyword::kLike))) {
      Advance();
      negated = true;
    }
    if (ConsumeKeyword(Keyword::kIn)) {
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'(' after IN"));
      const size_t start = exprs_.size();
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        exprs_.push_back(std::move(e));
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      return ExprPtr(New<InListExpr>(std::move(left),
                                     Finish(&exprs_, start), negated));
    }
    if (ConsumeKeyword(Keyword::kLike)) {
      P3PDB_ASSIGN_OR_RETURN(ExprPtr pattern, ParsePrimary());
      char escape = '\0';
      if (ConsumeKeyword(Keyword::kEscape)) {
        if (Current().type != TokenType::kString ||
            Current().text.size() != 1) {
          return ErrorHere("ESCAPE requires a single-character string");
        }
        escape = Current().text[0];
        Advance();
      }
      return ExprPtr(
          New<LikeExpr>(std::move(left), std::move(pattern), negated, escape));
    }
    return left;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Current();
    switch (tok.type) {
      case TokenType::kQuestion: {
        ExprPtr e = New<ParamExpr>(param_count_++);
        Advance();
        return e;
      }
      case TokenType::kString: {
        ExprPtr e =
            LiteralExpr::MakeText(arena_.get(), tok.text);
        Advance();
        return e;
      }
      case TokenType::kInteger: {
        ExprPtr e = LiteralExpr::Make(arena_.get(), Value::Integer(tok.int_value));
        Advance();
        return e;
      }
      case TokenType::kOperator:
        if (tok.text == "<" || tok.text == ">") break;
        break;
      case TokenType::kLeftParen: {
        Advance();
        P3PDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
        return inner;
      }
      case TokenType::kIdentifier: {
        if (tok.IsKeyword(Keyword::kNull)) {
          Advance();
          return ExprPtr(LiteralExpr::Make(arena_.get(), Value::Null()));
        }
        if (tok.IsKeyword(Keyword::kTrue)) {
          Advance();
          return ExprPtr(LiteralExpr::Make(arena_.get(), Value::Boolean(true)));
        }
        if (tok.IsKeyword(Keyword::kFalse)) {
          Advance();
          return ExprPtr(
              LiteralExpr::Make(arena_.get(), Value::Boolean(false)));
        }
        // Aggregate function?
        if (Peek(1).type == TokenType::kLeftParen) {
          if (tok.IsKeyword(Keyword::kCount)) {
            Advance();
            Advance();  // '('
            if (Consume(TokenType::kStar)) {
              P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
              return ExprPtr(New<AggregateExpr>(AggFunc::kCountStar, nullptr));
            }
            P3PDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
            return ExprPtr(New<AggregateExpr>(AggFunc::kCount, std::move(arg)));
          }
          AggFunc func;
          bool is_agg = true;
          if (tok.IsKeyword(Keyword::kMin)) {
            func = AggFunc::kMin;
          } else if (tok.IsKeyword(Keyword::kMax)) {
            func = AggFunc::kMax;
          } else if (tok.IsKeyword(Keyword::kSum)) {
            func = AggFunc::kSum;
          } else {
            is_agg = false;
            func = AggFunc::kCount;
          }
          if (is_agg) {
            Advance();
            Advance();  // '('
            P3PDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
            return ExprPtr(New<AggregateExpr>(func, std::move(arg)));
          }
        }
        // Column reference: ident or ident.ident.
        const std::string_view first = Name(tok);
        Advance();
        if (Consume(TokenType::kDot)) {
          P3PDB_ASSIGN_OR_RETURN(std::string_view col,
                                 ExpectIdentifier("column name"));
          return ExprPtr(New<ColumnRefExpr>(first, col));
        }
        return ExprPtr(New<ColumnRefExpr>(std::string_view(), first));
      }
      default:
        break;
    }
    return ErrorHere("expected expression");
  }

  std::string_view sql_;
  TokenList tokens_;
  size_t pos_ = 0;
  // The arena of the statement being parsed; handed to its root on success.
  std::unique_ptr<StatementArena> arena_;
  // Input offset of the arena's text copy (non-zero for a script's later
  // statements).
  size_t text_offset_ = 0;
  // List scratch: one stack per element type (see Finish), on the stack
  // buffer while it lasts.
  alignas(std::max_align_t) std::array<std::byte, kScratchBytes>
      scratch_buffer_;
  std::pmr::monotonic_buffer_resource scratch_;
  std::pmr::vector<ExprPtr> exprs_;
  std::pmr::vector<SelectItem> items_;
  std::pmr::vector<TableRef> refs_;
  std::pmr::vector<OrderByItem> order_;
  // `?` placeholders seen so far in the current statement; becomes the root
  // SELECT's param_count.
  size_t param_count_ = 0;
};

}  // namespace

Result<std::unique_ptr<Statement>> ParseStatement(std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(TokenList tokens, Tokenize(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseSingle();
}

Result<std::vector<std::unique_ptr<Statement>>> ParseScript(
    std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(TokenList tokens, Tokenize(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseAll();
}

}  // namespace p3pdb::sqldb
