package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.benchgen.{BenchGen, GenTable}
import repro.formulas.FormulaParser

/** Pins what the pipeline's entry points return on seeded benchmark tables:
  * `cleanTable`, `ExecutionGuided.clean`, Table 8's unsupervised protocol
  * (`cleanTable` plus `ExecutionGuided.applied`) and
  * `DataVinciSpark.learnColumnModel`. Each digest is a SHA-256 over a sorted
  * rendering of the outputs, so any change of behaviour, however small,
  * changes a digest. The pipeline is deterministic; a digest that moves
  * means the outputs moved.
  */
class CharacterizationSpec extends AnyFunSuite {

  private val wiki      = (0L until 16L).map(BenchGen.wikipedia)
  private val synthetic = (0L until 6L).map(BenchGen.synthetic)
  private val formulas  = (0L until 20L).map(BenchGen.formulas)

  private def sha256(lines: Seq[String]): String =
    MessageDigest.getInstance("SHA-256")
      .digest(lines.mkString("\n").getBytes("UTF-8")).map(b => f"$b%02x").mkString

  private def rows(s: Iterable[Int]): String = s.toVector.sorted.mkString(",")

  private def cleanTableLines(tables: Seq[GenTable], cfg: DataVinci.Config): Seq[String] =
    tables.flatMap { t =>
      val res = DataVinci.cleanTable(t.dirtyTable, cfg)
      res.keys.toVector.sorted.map { c =>
        val r = res(c)
        val sug = r.repairs.toVector.sortBy(_._1).map { case (row, cr) =>
          s"$row->${cr.suggestion.getOrElse("<none>")}[${cr.candidates.map(_.repaired).mkString("|")}]"
        }
        s"${t.benchmark}/${t.tableId}/$c sig=${r.significant.map(_._1.pretty).mkString(" ")} " +
          s"err=${rows(r.errors)} rep=${sug.mkString(";")}"
      }
    }

  private def check(name: String, lines: Seq[String], expected: String): Unit = {
    val got = sha256(lines)
    assert(got == expected, s"$name digest moved; first lines:\n${lines.take(5).mkString("\n")}")
  }

  test("cleanTable on Wikipedia and Synthetic tables") {
    check("wikipedia", cleanTableLines(wiki, DataVinci.Config()),
      "a13d00a4b26898d031b6b7cb741114b279505c06889445db8cb9e540d6711bd8")
    check("synthetic", cleanTableLines(synthetic, DataVinci.Config()),
      "0a4116002107c1747f49f0cf92fcd4c323975df78df52a64f302329cf712834b")
  }

  test("cleanTable under the Table-9 ablation configurations") {
    val ablations = Vector(
      DataVinci.Config(semantic = false),
      DataVinci.Config(limitedSemanticConcretization = true),
      DataVinci.Config(learnedConcretization = false),
      DataVinci.Config(editDistanceRanking = true),
    )
    check("ablations", ablations.flatMap(cfg => cleanTableLines(wiki.take(6), cfg)),
      "4681b2520c53743b7da9a29a530e74a7b25cc9fc29ec1cdaa03d52a9b4981d86")
  }

  test("ExecutionGuided.clean and cleanUnsupervised on Excel-Formulas tables") {
    def lines(run: (Table, repro.formulas.Expr, Vector[Int]) => ExecutionGuided.Result): Seq[String] =
      formulas.map { t =>
        val expr = FormulaParser.parse(t.formula).toOption.get
        val r = run(t.dirtyTable, expr, t.inputCols)
        val reps = r.repairs.toVector.sortBy(_._1).map { case ((c, row), s) => s"$c:$row->$s" }
        s"${t.tableId} before=${rows(r.failingBefore)} after=${rows(r.failingAfter)} rep=${reps.mkString(";")}"
      }
    check("guided", lines(ExecutionGuided.clean(_, _, _)),
      "ba9679d164501451435220b8ee773142a832bad349a4d80baa8e07e6354d61fc")
    // Table 8's unsupervised row: plain cleaning, repairs applied only to
    // the inputs of failing rows (the evaluation harness's protocol)
    def unsupervised(table: Table, expr: repro.formulas.Expr, inputCols: Vector[Int]): ExecutionGuided.Result = {
      val before = ExecutionGuided.failingRows(table, expr)
      val res = DataVinci.cleanTable(table)
      val repairs = for {
        c <- inputCols
        r <- before.toVector
        s <- res(c).suggestionFor(r)
      } yield (c, r) -> s
      ExecutionGuided.applied(table, expr, before, repairs.toMap)
    }
    check("unsupervised", lines(unsupervised),
      "3cb4d423b8663994eb25bc7cbbd5a7f07afea97a6aba25453e3742e08b1f3d58")
  }

  test("learnColumnModel agrees with cleanColumn on a one-column table") {
    val columns = (wiki ++ synthetic.take(2)).flatMap(t => t.dirtyTable.cols.map(t.tableId -> _.values))
    val lines = columns.map { case (id, values) =>
      val model = DataVinciSpark.learnColumnModel(values)
      val res = DataVinci.cleanColumn(Table.of("col" -> values), 0)
      assert(model.errorValues == res.errors.map(values))
      assert(model.repairs == res.repairs.flatMap { case (r, cr) => cr.suggestion.map(values(r) -> _) })
      s"$id re=${model.patternRegexes.mkString(" ")} err=${model.errorValues.toVector.sorted.mkString("|")} " +
        s"rep=${model.repairs.toVector.sorted.mkString("|")}"
    }
    check("learnColumnModel", lines, "2bfaa511bc7cd5613ea50727f2aaf1b09f6d1b4f38c62bb28bcaba695288730b")
  }
}
