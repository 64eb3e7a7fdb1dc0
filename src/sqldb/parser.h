// Recursive-descent SQL parser producing the AST of ast.h.

#ifndef P3PDB_SQLDB_PARSER_H_
#define P3PDB_SQLDB_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sqldb/ast.h"

namespace p3pdb::sqldb {

/// Parses a single SQL statement (a trailing semicolon is allowed). The
/// returned root lives in, and owns, the StatementArena every node and list
/// below it lives in (ast.h, "Statement memory"); the arena holds a copy of
/// `sql`, and its first block is sized from the text.
Result<std::unique_ptr<Statement>> ParseStatement(std::string_view sql);

/// Parses a semicolon-separated script. Empty statements are skipped. Each
/// statement gets its own arena, holding and sized from its own text.
Result<std::vector<std::unique_ptr<Statement>>> ParseScript(
    std::string_view sql);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_PARSER_H_
