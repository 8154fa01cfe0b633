package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.formulas.FormulaParser

class ExecutionGuidedSpec extends AnyFunSuite {

  private def expr(s: String) = FormulaParser.parse(s).toOption.get

  test("Fig 8: execution-guided repairs C30→Chrome30 where unsupervised cannot") {
    val table = Table.of("Option" -> Seq("Chrome23", "Chrome21", "C30", "Chrome19", "Chrome22",
                                         "C15", "C26", "Chrome17", "Chrome20", "Chrome25", "Chrome18"))
    val f = expr("""=RIGHT(A1, LEN(A1) - SEARCH("Chrome",A1) - LEN("Chrome") + 1)""")

    assert(ExecutionGuided.failingRows(table, f) == Set(2, 5, 6))
    // unsupervised: C[0-9]{2} is significant, so no failing row is flagged
    // and there is nothing to apply to them
    val unsup = DataVinci.cleanColumn(table, 0)
    assert((unsup.errors & Set(2, 5, 6)).isEmpty)
    assert(Set(2, 5, 6).flatMap(unsup.suggestionFor).isEmpty)

    val guided = ExecutionGuided.clean(table, f, Vector(0))
    assert(guided.repairs == Map((0, 2) -> "Chrome30", (0, 5) -> "Chrome15", (0, 6) -> "Chrome26"))
    assert(guided.failingAfter.isEmpty)
  }

  test("§1 motivating example: c3, c4 repaired to c-3, c-4") {
    val table = Table.of("col1" -> Seq("c-1", "c-2", "c3", "c4"))
    val f = expr("""=SEARCH("-",[@col1])""")
    val guided = ExecutionGuided.clean(table, f, Vector(0))
    assert(guided.failingBefore == Set(2, 3))
    assert(guided.repairs == Map((0, 2) -> "c-3", (0, 3) -> "c-4"))
    assert(guided.failingAfter.isEmpty)
  }

  test("no failing rows → nothing to do") {
    val table = Table.of("c" -> Seq("a-1", "b-2"))
    val r = ExecutionGuided.clean(table, expr("""=SEARCH("-",[@c])"""), Vector(0))
    assert(r.failingBefore.isEmpty && r.repairs.isEmpty)
    assert(r.repairedTable == table)
  }

  test("multi-column: only the faulty input column is repaired") {
    val table = Table.of(
      "a" -> Seq("x-1", "x-2", "x3", "x-4"),
      "b" -> Seq("10", "20", "30", "40"),
    )
    val f = expr("""=SEARCH("-",[@a])+VALUE([@b])""")
    val r = ExecutionGuided.clean(table, f, Vector(0, 1))
    assert(r.failingBefore == Set(2))
    assert(r.repairs.keySet == Set((0, 2)))
    assert(r.repairs((0, 2)) == "x-3")
    assert(r.failingAfter.isEmpty)
  }

  test("failingRows matches the evaluator") {
    val table = Table.of("c" -> Seq("1", "x", "3"))
    assert(ExecutionGuided.failingRows(table, expr("=VALUE([@c])")) == Set(1))
  }

  test("execution-guided learns patterns only over succeeding values") {
    // successes have a strict format; global learning would accept both
    val table = Table.of("c" -> Seq("A-1", "A-2", "A-3", "B_9", "B_8"))
    val f = expr("""=SEARCH("-",[@c])""")
    val r = ExecutionGuided.clean(table, f, Vector(0))
    assert(r.failingBefore == Set(3, 4))
    // repairs convert the underscore convention to the succeeding one
    assert(r.repairs.values.forall(_.contains("-")))
    assert(r.failingAfter.isEmpty)
  }
}
