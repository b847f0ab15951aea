// Tests for the declarative interface: lexer, parser, expression
// evaluation and query compilation.
#include <gtest/gtest.h>

#include "core/builtins.h"
#include "devices/camera.h"
#include "devices/mote.h"
#include "devices/phone.h"
#include "query/compile.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "sched/cost_model.h"

namespace aorta::query {
namespace {

using device::Value;

// ------------------------------------------------------------------ lexer

TEST(LexerTest, TokenizesTheSnapshotQuery) {
  auto tokens = lex(
      "CREATE AQ snapshot AS SELECT photo(c.ip, s.loc, \"photos/admin\") "
      "FROM sensor s, camera c WHERE s.accel_x > 500 AND coverage(c.id, s.loc)");
  ASSERT_TRUE(tokens.is_ok());
  const auto& t = tokens.value();
  EXPECT_TRUE(t[0].is_keyword("CREATE"));
  EXPECT_TRUE(t[1].is_keyword("AQ"));
  EXPECT_EQ(t[2].type, TokenType::kIdentifier);
  EXPECT_EQ(t[2].text, "snapshot");
  // The string literal is unquoted in the token.
  bool found_string = false;
  for (const auto& token : t) {
    if (token.type == TokenType::kString) {
      EXPECT_EQ(token.text, "photos/admin");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
  EXPECT_EQ(t.back().type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitiveIdentifiersAreNot) {
  auto tokens = lex("select Foo FROM bar");
  ASSERT_TRUE(tokens.is_ok());
  EXPECT_TRUE(tokens.value()[0].is_keyword("SELECT"));
  EXPECT_EQ(tokens.value()[1].text, "Foo");  // case preserved
}

TEST(LexerTest, NumbersAndOperators) {
  auto tokens = lex("1 2.5 -3 1e3 <= >= <> != = < >");
  ASSERT_TRUE(tokens.is_ok());
  const auto& t = tokens.value();
  EXPECT_DOUBLE_EQ(t[0].number, 1.0);
  EXPECT_DOUBLE_EQ(t[1].number, 2.5);
  EXPECT_TRUE(t[2].is_symbol("-"));  // unary minus handled by the parser
  EXPECT_DOUBLE_EQ(t[3].number, 3.0);
  EXPECT_DOUBLE_EQ(t[4].number, 1000.0);
  EXPECT_TRUE(t[5].is_symbol("<="));
  EXPECT_TRUE(t[6].is_symbol(">="));
  EXPECT_TRUE(t[7].is_symbol("<>"));
  EXPECT_TRUE(t[8].is_symbol("<>"));  // != normalizes to <>
}

TEST(LexerTest, CommentsAndErrors) {
  auto ok = lex("SELECT x -- trailing comment\nFROM t");
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value().size(), 5u);  // SELECT x FROM t END
  EXPECT_FALSE(lex("SELECT 'unterminated").is_ok());
  EXPECT_FALSE(lex("SELECT #x").is_ok());
}

// ----------------------------------------------------------------- parser

TEST(ParserTest, ParsesCreateAq) {
  auto stmt = parse(
      "CREATE AQ snapshot AS SELECT photo(c.ip, s.loc, 'photos/admin') "
      "FROM sensor s, camera c WHERE s.accel_x > 500 AND coverage(c.id, s.loc)");
  ASSERT_TRUE(stmt.is_ok());
  ASSERT_EQ(stmt.value().kind, Statement::Kind::kCreateAq);
  const CreateAqStmt& aq = stmt.value().create_aq;
  EXPECT_EQ(aq.name, "snapshot");
  EXPECT_DOUBLE_EQ(aq.epoch_s, 0.0);
  ASSERT_EQ(aq.select.select_list.size(), 1u);
  EXPECT_EQ(aq.select.select_list[0]->kind, Expr::Kind::kFuncCall);
  EXPECT_EQ(aq.select.select_list[0]->func_name, "photo");
  ASSERT_EQ(aq.select.from.size(), 2u);
  EXPECT_EQ(aq.select.from[0].table, "sensor");
  EXPECT_EQ(aq.select.from[0].alias, "s");
  ASSERT_NE(aq.select.where, nullptr);
  EXPECT_EQ(aq.select.where->op, BinaryOp::kAnd);
}

TEST(ParserTest, ParsesCreateAqWithEpoch) {
  auto stmt = parse("CREATE AQ q EVERY 30 AS SELECT beep(s.id) FROM sensor s");
  ASSERT_TRUE(stmt.is_ok());
  EXPECT_DOUBLE_EQ(stmt.value().create_aq.epoch_s, 30.0);
  EXPECT_FALSE(parse("CREATE AQ q EVERY 0 AS SELECT x FROM t").is_ok());
}

TEST(ParserTest, ParsesCreateActionWithParams) {
  auto stmt = parse(
      "CREATE ACTION sendphoto(String phone_no, String photo_pathname) "
      "AS \"lib/users/sendphoto.dll\" PROFILE \"profiles/users/sendphoto.xml\"");
  ASSERT_TRUE(stmt.is_ok());
  ASSERT_EQ(stmt.value().kind, Statement::Kind::kCreateAction);
  const CreateActionStmt& action = stmt.value().create_action;
  EXPECT_EQ(action.name, "sendphoto");
  ASSERT_EQ(action.params.size(), 2u);
  EXPECT_EQ(action.params[0].type_name, "String");
  EXPECT_EQ(action.params[0].name, "phone_no");
  EXPECT_EQ(action.library_path, "lib/users/sendphoto.dll");
  EXPECT_EQ(action.profile_path, "profiles/users/sendphoto.xml");
}

TEST(ParserTest, ParsesSelectAndDrop) {
  auto select = parse("SELECT s.id, s.temp FROM sensor s WHERE s.temp > 25;");
  ASSERT_TRUE(select.is_ok());
  EXPECT_EQ(select.value().kind, Statement::Kind::kSelect);
  EXPECT_EQ(select.value().select.select_list.size(), 2u);

  auto star = parse("SELECT * FROM sensor");
  ASSERT_TRUE(star.is_ok());
  EXPECT_EQ(star.value().select.from[0].alias, "sensor");  // default alias

  auto drop = parse("DROP AQ snapshot");
  ASSERT_TRUE(drop.is_ok());
  EXPECT_EQ(drop.value().kind, Statement::Kind::kDropAq);
  EXPECT_EQ(drop.value().drop_aq.name, "snapshot");
}

TEST(ParserTest, RejectsMalformedStatements) {
  EXPECT_FALSE(parse("CREATE TABLE t (x int)").is_ok());
  EXPECT_FALSE(parse("SELECT FROM t").is_ok());
  EXPECT_FALSE(parse("SELECT x").is_ok());                       // no FROM
  EXPECT_FALSE(parse("SELECT x FROM t WHERE").is_ok());          // empty WHERE
  EXPECT_FALSE(parse("CREATE AQ q AS SELECT x FROM t extra junk").is_ok());
  EXPECT_FALSE(parse("CREATE ACTION a(String) AS \"l\" PROFILE \"p\"").is_ok());
  EXPECT_FALSE(parse("CREATE ACTION a() AS lib PROFILE \"p\"").is_ok());
  EXPECT_FALSE(parse("DROP AQ").is_ok());
  EXPECT_FALSE(parse("").is_ok());
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = parse_expression("a + b * c > 10 AND NOT flag OR done");
  ASSERT_TRUE(e.is_ok());
  // ((((a + (b*c)) > 10) AND (NOT flag)) OR done)
  EXPECT_EQ(e.value()->to_string(),
            "((((a + (b * c)) > 10) AND (NOT flag)) OR done)");
  // Parenthesized grouping wins.
  auto g = parse_expression("(a + b) * c");
  ASSERT_TRUE(g.is_ok());
  EXPECT_EQ(g.value()->to_string(), "((a + b) * c)");
}

TEST(ParserTest, UnaryMinusAndLiterals) {
  auto e = parse_expression("-5 + 2.5");
  ASSERT_TRUE(e.is_ok());
  auto t = parse_expression("TRUE AND NOT FALSE");
  ASSERT_TRUE(t.is_ok());
  auto n = parse_expression("x = NULL");
  ASSERT_TRUE(n.is_ok());
}

TEST(ParserTest, CloneProducesEqualTree) {
  auto e = parse_expression("f(a.b, 1 + 2) >= g()");
  ASSERT_TRUE(e.is_ok());
  ExprPtr copy = e.value()->clone();
  EXPECT_EQ(copy->to_string(), e.value()->to_string());
}

// ---------------------------------------------------------- expr evaluation

struct EvalFixture : public ::testing::Test {
  EvalFixture()
      : schema("sensor", {{"id", device::AttrType::kString, false},
                          {"accel_x", device::AttrType::kDouble, true},
                          {"temp", device::AttrType::kDouble, true}}),
        tuple(&schema, "m1") {
    tuple.set_by_name("id", Value{std::string("m1")});
    tuple.set_by_name("accel_x", Value{600.0});
    // temp left NULL
    env.bind("s", &tuple);
    (void)functions.add("twice", [](const std::vector<Value>& args) {
      double x = 0;
      device::value_as_double(args.at(0), &x);
      return util::Result<Value>(Value{2 * x});
    });
  }

  Value eval_str(const std::string& text) {
    auto e = parse_expression(text);
    EXPECT_TRUE(e.is_ok()) << text;
    auto v = eval(*e.value(), env, functions);
    EXPECT_TRUE(v.is_ok()) << text << ": " << v.status().to_string();
    return v.is_ok() ? v.value() : Value{};
  }

  bool pred(const std::string& text) {
    auto e = parse_expression(text);
    EXPECT_TRUE(e.is_ok()) << text;
    return eval_predicate(*e.value(), env, functions);
  }

  comm::Schema schema;
  comm::Tuple tuple;
  Env env;
  FunctionRegistry functions;
};

TEST_F(EvalFixture, ColumnResolutionQualifiedAndBare) {
  EXPECT_TRUE(device::value_equal(eval_str("s.accel_x"), Value{600.0}));
  EXPECT_TRUE(device::value_equal(eval_str("accel_x"), Value{600.0}));
  auto unknown = parse_expression("s.nope");
  auto v = eval(*unknown.value(), env, functions);
  ASSERT_TRUE(v.is_ok());  // unknown column on a bound tuple is NULL
  EXPECT_TRUE(std::holds_alternative<std::monostate>(v.value()));
  auto unbound = parse_expression("zz.accel_x");
  EXPECT_FALSE(eval(*unbound.value(), env, functions).is_ok());
}

TEST_F(EvalFixture, ComparisonsAndArithmetic) {
  EXPECT_TRUE(pred("s.accel_x > 500"));
  EXPECT_FALSE(pred("s.accel_x > 700"));
  EXPECT_TRUE(pred("s.accel_x + 100 = 700"));
  EXPECT_TRUE(pred("s.accel_x / 2 = 300"));
  EXPECT_TRUE(pred("s.id = 'm1'"));
  EXPECT_TRUE(pred("s.id <> 'm2'"));
  EXPECT_TRUE(pred("'abc' < 'abd'"));
}

TEST_F(EvalFixture, NullSemantics) {
  // temp is NULL: comparisons are false, so is the negated comparison's
  // operand relation, and arithmetic propagates NULL.
  EXPECT_FALSE(pred("s.temp > 0"));
  EXPECT_FALSE(pred("s.temp = 0"));
  EXPECT_FALSE(pred("s.temp <> 0"));
  auto v = eval_str("s.temp + 1");
  EXPECT_TRUE(std::holds_alternative<std::monostate>(v));
  EXPECT_FALSE(pred("s.temp + 1 > 0"));
  // Division by zero is NULL, not a crash.
  auto dz = eval_str("1 / 0");
  EXPECT_TRUE(std::holds_alternative<std::monostate>(dz));
}

TEST_F(EvalFixture, LogicShortCircuits) {
  EXPECT_TRUE(pred("TRUE OR zz.boom"));    // rhs never evaluated
  EXPECT_FALSE(pred("FALSE AND zz.boom"));
  EXPECT_TRUE(pred("NOT FALSE"));
  EXPECT_TRUE(pred("s.accel_x > 500 AND s.id = 'm1'"));
}

TEST_F(EvalFixture, FunctionsAndErrors) {
  EXPECT_TRUE(device::value_equal(eval_str("twice(21)"), Value{42.0}));
  EXPECT_TRUE(pred("twice(s.accel_x) = 1200"));
  auto unknown_fn = parse_expression("warp(1)");
  EXPECT_FALSE(eval(*unknown_fn.value(), env, functions).is_ok());
  EXPECT_FALSE(pred("warp(1)"));  // predicate: error collapses to false
}

TEST_F(EvalFixture, StringConcatenation) {
  EXPECT_TRUE(device::value_equal(eval_str("'a' + 'b'"),
                                  Value{std::string("ab")}));
}

// ---------------------------------------------------------------- compile

struct CompileFixture : public ::testing::Test {
  CompileFixture()
      : loop(&clock),
        network(&loop, util::Rng(1)),
        registry(&network, &loop, util::Rng(2)) {
    (void)registry.register_type(devices::camera_type_info());
    (void)registry.register_type(devices::sensor_type_info());
    (void)registry.register_type(devices::phone_type_info());
    // Scalar functions (coverage, distance, ...): compile() rejects calls
    // to unregistered ones.
    core::register_builtin_function_library(&catalog, &registry);

    // Minimal photo action for binding checks.
    ActionDef photo;
    photo.name = "photo";
    photo.params = {{device::AttrType::kString, "camera_ip"},
                    {device::AttrType::kLocation, "location"},
                    {device::AttrType::kString, "directory"}};
    photo.device_type = "camera";
    photo.binding_param = 0;
    photo.binding_attr = "ip";
    photo.profile = sched::PhotoCostModel::make_photo_profile();
    photo.cost_model = std::shared_ptr<const sched::CostModel>(
        sched::PhotoCostModel::axis2130().release());
    (void)catalog.register_action(std::move(photo));
  }

  util::Result<CompiledQuery> compile_sql(const std::string& sql) {
    auto stmt = parse(sql);
    EXPECT_TRUE(stmt.is_ok()) << stmt.status().to_string();
    const SelectStmt& select = stmt.value().kind == Statement::Kind::kCreateAq
                                   ? stmt.value().create_aq.select
                                   : stmt.value().select;
    return compile(select, catalog, registry);
  }

  util::SimClock clock;
  util::EventLoop loop;
  net::Network network;
  device::DeviceRegistry registry;
  Catalog catalog;
};

TEST_F(CompileFixture, SnapshotQueryCompilesAsPaperDescribes) {
  auto q = compile_sql(
      "CREATE AQ snapshot AS SELECT photo(c.ip, s.loc, 'photos/admin') "
      "FROM sensor s, camera c "
      "WHERE s.accel_x > 500 AND coverage(c.id, s.loc)");
  ASSERT_TRUE(q.is_ok()) << q.status().to_string();
  const CompiledQuery& compiled = q.value();
  EXPECT_EQ(compiled.event_alias, "s");
  EXPECT_TRUE(compiled.edge_triggered);
  ASSERT_EQ(compiled.event_predicates.size(), 1u);
  EXPECT_EQ(compiled.event_predicates[0]->to_string(), "(s.accel_x > 500)");
  ASSERT_EQ(compiled.join_predicates.size(), 1u);
  ASSERT_EQ(compiled.actions.size(), 1u);
  EXPECT_EQ(compiled.actions[0].action->name, "photo");
  EXPECT_EQ(compiled.actions[0].candidate_alias, "c");
  // Projection pushdown: the sensor scan needs accel_x and loc only.
  ASSERT_TRUE(compiled.needed_attrs.count("s"));
  EXPECT_TRUE(compiled.needed_attrs.at("s").count("accel_x"));
  EXPECT_TRUE(compiled.needed_attrs.at("s").count("loc"));
  EXPECT_FALSE(compiled.needed_attrs.at("s").count("temp"));
}

TEST_F(CompileFixture, SingleTableActionBindsEventDevice) {
  // beep-style action on the event table itself.
  ActionDef beep;
  beep.name = "beep";
  beep.params = {{device::AttrType::kString, "sensor_id"}};
  beep.device_type = "sensor";
  beep.profile = device::ActionProfile(
      "beep", "sensor", device::ActionProfileNode::op("beep"));
  beep.cost_model = std::make_shared<sched::FixedCostModel>();
  (void)catalog.register_action(std::move(beep));

  auto q = compile_sql(
      "CREATE AQ a AS SELECT beep(s.id) FROM sensor s WHERE s.temp > 28");
  ASSERT_TRUE(q.is_ok()) << q.status().to_string();
  EXPECT_EQ(q.value().actions[0].candidate_alias, "s");
  EXPECT_TRUE(q.value().edge_triggered);
}

TEST_F(CompileFixture, LevelTriggeredWhenNoSensoryPredicate) {
  auto q = compile_sql("SELECT s.id FROM sensor s WHERE s.id = 'm1'");
  ASSERT_TRUE(q.is_ok());
  EXPECT_FALSE(q.value().edge_triggered);
  EXPECT_EQ(q.value().event_alias, "s");
}

TEST_F(CompileFixture, RejectsBadQueries) {
  // Unknown table.
  EXPECT_FALSE(compile_sql("SELECT x FROM spaceship s").is_ok());
  // Three tables.
  EXPECT_FALSE(
      compile_sql("SELECT s.id FROM sensor s, camera c, phone p").is_ok());
  // Duplicate alias.
  EXPECT_FALSE(compile_sql("SELECT s.id FROM sensor s, camera s").is_ok());
  // Wrong action arity.
  EXPECT_FALSE(compile_sql("CREATE AQ a AS SELECT photo(c.ip) "
                           "FROM sensor s, camera c WHERE s.accel_x > 1")
                   .is_ok());
  // Action device type mismatch: photo's binding arg references the sensor.
  EXPECT_FALSE(compile_sql(
                   "CREATE AQ a AS SELECT photo(s.id, s.loc, 'd') "
                   "FROM sensor s, camera c WHERE s.accel_x > 1")
                   .is_ok());
  // Sensory predicate on the candidate table.
  EXPECT_FALSE(compile_sql(
                   "CREATE AQ a AS SELECT photo(c.ip, s.loc, 'd') "
                   "FROM sensor s, camera c "
                   "WHERE s.accel_x > 1 AND c.zoom > 2")
                   .is_ok());
  // Two tables with sensory predicates on both.
  EXPECT_FALSE(compile_sql("SELECT s.id FROM sensor s, camera c "
                           "WHERE s.accel_x > 1 AND c.pan > 0")
                   .is_ok());
  // Unknown column.
  EXPECT_FALSE(compile_sql("SELECT s.id FROM sensor s WHERE s.vibe > 1").is_ok());
}

TEST_F(CompileFixture, UnknownFunctionInSelectListBecomesProjection) {
  // Non-action function calls stay projections (evaluated per row).
  auto q = compile_sql("SELECT distance(s.loc, s.loc) FROM sensor s");
  ASSERT_TRUE(q.is_ok());
  EXPECT_TRUE(q.value().actions.empty());
  EXPECT_EQ(q.value().projections.size(), 1u);
}

}  // namespace
}  // namespace aorta::query
