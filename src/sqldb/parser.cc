#include "sqldb/parser.h"

#include "sqldb/lexer.h"

namespace p3pdb::sqldb {

namespace {

class Parser {
 public:
  explicit Parser(TokenList tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Statement>> ParseSingle() {
    P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, ParseStatement());
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
                             ParseStatement());
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

  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (Current().type != TokenType::kIdentifier) {
      return ErrorHere("expected " + std::string(what));
    }
    std::string name(Current().text);
    Advance();
    return name;
  }

  /// Places a node in the current statement's arena.
  template <typename T, typename... Args>
  ArenaPtr<T> New(Args&&... args) {
    return arena_->New<T>(std::forward<Args>(args)...);
  }

  /// Bytes of SQL text from the current token to the end of the statement
  /// it starts (the next ';' or the end of input).
  size_t StatementBytes() const {
    size_t end = pos_;
    while (tokens_[end].type != TokenType::kSemicolon &&
           tokens_[end].type != TokenType::kEnd) {
      ++end;
    }
    return tokens_[end].offset - Current().offset;
  }

  // ---- statements ----

  /// Parses one root statement into a fresh arena sized from its text.
  /// The root itself is a heap object that takes ownership of the arena;
  /// every node below it is placed in the arena.
  Result<std::unique_ptr<Statement>> ParseStatement() {
    param_count_ = 0;
    arena_ = StatementArena::ForText(StatementBytes());
    P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, ParseRoot());
    stmt->arena = std::move(arena_);
    return stmt;
  }

  Result<std::unique_ptr<Statement>> ParseRoot() {
    if (Current().IsKeyword(Keyword::kSelect)) {
      auto sel = std::make_unique<SelectStmt>();
      P3PDB_RETURN_IF_ERROR(ParseSelectBody(sel.get()));
      sel->param_count = param_count_;
      return std::unique_ptr<Statement>(std::move(sel));
    }
    if (ConsumeKeyword(Keyword::kExplain)) {
      auto explain = std::make_unique<ExplainStmt>();
      explain->analyze = ConsumeKeyword(Keyword::kAnalyze);
      P3PDB_ASSIGN_OR_RETURN(explain->select, ParseSubquery());
      explain->select->param_count = param_count_;
      return std::unique_ptr<Statement>(std::move(explain));
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
      select->items.push_back(std::move(item));
      if (!Consume(TokenType::kComma)) break;
    }

    if (ConsumeKeyword(Keyword::kFrom)) {
      for (;;) {
        TableRef ref;
        P3PDB_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier("table name"));
        // Optional alias: a bare identifier that is not a clause keyword.
        if (Current().type == TokenType::kIdentifier && !IsClauseKeyword()) {
          ref.alias = std::string(Current().text);
          Advance();
        } else {
          ref.alias = ref.table_name;
        }
        select->from.push_back(std::move(ref));
        if (!Consume(TokenType::kComma)) break;
      }
    }

    if (ConsumeKeyword(Keyword::kWhere)) {
      P3PDB_ASSIGN_OR_RETURN(select->where, ParseExpr());
    }
    if (Current().IsKeyword(Keyword::kGroup)) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kBy));
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        select->group_by.push_back(std::move(e));
        if (!Consume(TokenType::kComma)) break;
      }
    }
    if (Current().IsKeyword(Keyword::kOrder)) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kBy));
      for (;;) {
        OrderByItem item;
        P3PDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword(Keyword::kDesc)) {
          item.ascending = false;
        } else {
          ConsumeKeyword(Keyword::kAsc);
        }
        select->order_by.push_back(std::move(item));
        if (!Consume(TokenType::kComma)) break;
      }
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

  Result<std::unique_ptr<Statement>> ParseInsert() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kInto));
    auto insert = std::make_unique<InsertStmt>();
    P3PDB_ASSIGN_OR_RETURN(insert->table_name,
                           ExpectIdentifier("table name"));
    if (Consume(TokenType::kLeftParen)) {
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("column name"));
        insert->columns.push_back(std::move(col));
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
    return std::unique_ptr<Statement>(std::move(insert));
  }

  Result<std::unique_ptr<Statement>> ParseUpdate() {
    auto update = std::make_unique<UpdateStmt>();
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
    return std::unique_ptr<Statement>(std::move(update));
  }

  Result<std::unique_ptr<Statement>> ParseDelete() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kFrom));
    auto del = std::make_unique<DeleteStmt>();
    P3PDB_ASSIGN_OR_RETURN(del->table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword(Keyword::kWhere)) {
      P3PDB_ASSIGN_OR_RETURN(del->where, ParseExpr());
    }
    return std::unique_ptr<Statement>(std::move(del));
  }

  Result<std::unique_ptr<Statement>> ParseCreate() {
    bool unique = ConsumeKeyword(Keyword::kUnique);
    if (ConsumeKeyword(Keyword::kIndex)) {
      auto ci = std::make_unique<CreateIndexStmt>();
      ci->unique = unique;
      P3PDB_ASSIGN_OR_RETURN(ci->index_name, ExpectIdentifier("index name"));
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kOn));
      P3PDB_ASSIGN_OR_RETURN(ci->table_name, ExpectIdentifier("table name"));
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("column name"));
        ci->columns.push_back(std::move(col));
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      return std::unique_ptr<Statement>(std::move(ci));
    }
    if (unique) return ErrorHere("expected INDEX after UNIQUE");
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kTable));
    auto ct = std::make_unique<CreateTableStmt>();
    if (Current().IsKeyword(Keyword::kIf)) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kNot));
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kExists));
      ct->if_not_exists = true;
    }
    P3PDB_ASSIGN_OR_RETURN(std::string table_name,
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
          P3PDB_ASSIGN_OR_RETURN(std::string col,
                                 ExpectIdentifier("column name"));
          primary_key.push_back(std::move(col));
          if (!Consume(TokenType::kComma)) break;
        }
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      } else if (Current().IsKeyword(Keyword::kForeign)) {
        Advance();
        P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kKey));
        ForeignKeyDef fk;
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
        for (;;) {
          P3PDB_ASSIGN_OR_RETURN(std::string col,
                                 ExpectIdentifier("column name"));
          fk.columns.push_back(std::move(col));
          if (!Consume(TokenType::kComma)) break;
        }
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
        P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kReferences));
        P3PDB_ASSIGN_OR_RETURN(fk.referenced_table,
                               ExpectIdentifier("table name"));
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
        for (;;) {
          P3PDB_ASSIGN_OR_RETURN(std::string col,
                                 ExpectIdentifier("column name"));
          fk.referenced_columns.push_back(std::move(col));
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
    ct->schema = TableSchema(std::move(table_name), std::move(columns));
    ct->schema.set_primary_key(std::move(primary_key));
    for (ForeignKeyDef& fk : fks) ct->schema.AddForeignKey(std::move(fk));
    return std::unique_ptr<Statement>(std::move(ct));
  }

  Result<std::unique_ptr<Statement>> ParseDrop() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kTable));
    auto drop = std::make_unique<DropTableStmt>();
    if (Current().IsKeyword(Keyword::kIf)) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword(Keyword::kExists));
      drop->if_exists = true;
    }
    P3PDB_ASSIGN_OR_RETURN(drop->table_name, ExpectIdentifier("table name"));
    return std::unique_ptr<Statement>(std::move(drop));
  }

  // ---- expressions ----

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    P3PDB_ASSIGN_OR_RETURN(ExprPtr first, ParseAnd());
    if (!Current().IsKeyword(Keyword::kOr)) return first;
    std::vector<ExprPtr> operands;
    operands.push_back(std::move(first));
    while (ConsumeKeyword(Keyword::kOr)) {
      P3PDB_ASSIGN_OR_RETURN(ExprPtr next, ParseAnd());
      operands.push_back(std::move(next));
    }
    return ExprPtr(New<LogicalExpr>(/*and_op=*/false, std::move(operands)));
  }

  Result<ExprPtr> ParseAnd() {
    P3PDB_ASSIGN_OR_RETURN(ExprPtr first, ParseNot());
    if (!Current().IsKeyword(Keyword::kAnd)) return first;
    std::vector<ExprPtr> operands;
    operands.push_back(std::move(first));
    while (ConsumeKeyword(Keyword::kAnd)) {
      P3PDB_ASSIGN_OR_RETURN(ExprPtr next, ParseNot());
      operands.push_back(std::move(next));
    }
    return ExprPtr(New<LogicalExpr>(/*and_op=*/true, std::move(operands)));
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
      std::vector<ExprPtr> items;
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        items.push_back(std::move(e));
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      return ExprPtr(
          New<InListExpr>(std::move(left), std::move(items), negated));
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
        ExprPtr e = New<LiteralExpr>(Value::Text(std::string(tok.text)));
        Advance();
        return e;
      }
      case TokenType::kInteger: {
        ExprPtr e = New<LiteralExpr>(Value::Integer(tok.int_value));
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
          return ExprPtr(New<LiteralExpr>(Value::Null()));
        }
        if (tok.IsKeyword(Keyword::kTrue)) {
          Advance();
          return ExprPtr(New<LiteralExpr>(Value::Boolean(true)));
        }
        if (tok.IsKeyword(Keyword::kFalse)) {
          Advance();
          return ExprPtr(New<LiteralExpr>(Value::Boolean(false)));
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
        std::string first(tok.text);
        Advance();
        if (Consume(TokenType::kDot)) {
          P3PDB_ASSIGN_OR_RETURN(std::string col,
                                 ExpectIdentifier("column name"));
          return ExprPtr(New<ColumnRefExpr>(std::move(first), std::move(col)));
        }
        return ExprPtr(New<ColumnRefExpr>("", std::move(first)));
      }
      default:
        break;
    }
    return ErrorHere("expected expression");
  }

  TokenList tokens_;
  size_t pos_ = 0;
  // The arena of the statement being parsed; handed to its root on success.
  std::unique_ptr<StatementArena> arena_;
  // `?` placeholders seen so far in the current statement; becomes the root
  // SELECT's param_count.
  size_t param_count_ = 0;
};

}  // namespace

Result<std::unique_ptr<Statement>> ParseStatement(std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(TokenList tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseSingle();
}

Result<std::vector<std::unique_ptr<Statement>>> ParseScript(
    std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(TokenList tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

}  // namespace p3pdb::sqldb
