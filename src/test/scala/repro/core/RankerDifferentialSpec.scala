package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Ranker.{Candidate, Scored, Weights}
import scala.util.Random

/** A readable `Ranker.rank`: every candidate's distance to every column
  * value, repeats included. The ranker is checked against it.
  */
object RankerReference {

  def rank(original: String, candidates: Vector[Candidate], columnValues: Vector[String],
           w: Weights, editDistanceOnly: Boolean): Vector[Scored] = {
    val scored = candidates.map { c =>
      val closest =
        if (columnValues.isEmpty) 0
        else columnValues.iterator.map(v => StringsReference.lev(c.repaired, v)).min
      val score =
        if (editDistanceOnly) -c.cost.toDouble
        else -w.wEdit * c.cost - w.wAlnum * c.alnumEdits - w.wClosest * closest + w.wCov * c.coverage
      Scored(c.repaired, c.patternPretty, c.coverage, c.alnumEdits, c.cost, score)
    }
    scored.groupBy(_.repaired).values.map(_.maxBy(_.score)).toVector
      .sortBy(s => (-s.score, s.repaired))
  }
}

class RankerDifferentialSpec extends AnyFunSuite {
  import RandomStrings._

  test("rank equals the reference on random candidates and column values") {
    val rng = new Random(71020L)
    for (i <- 0 until 3000) {
      val original = string(rng, length(rng))
      // column values near the original, with repeats and empty strings
      val pool = Vector.fill(1 + rng.nextInt(6))(near(rng, original)) :+ ""
      val column = Vector.fill(rng.nextInt(12))(pool(rng.nextInt(pool.length)))
      val cands = Vector.fill(rng.nextInt(6)) {
        val repaired = if (rng.nextInt(4) == 0 && column.nonEmpty) column(rng.nextInt(column.length)) else near(rng, original)
        Candidate(repaired, s"p${rng.nextInt(3)}", rng.nextInt(9) / 8.0, rng.nextInt(5), rng.nextInt(8))
      }
      // repeat a candidate's string under another pattern now and then
      val withDup = if (cands.nonEmpty && rng.nextBoolean()) cands :+ cands.head.copy(patternPretty = "q") else cands
      val w = if (i % 2 == 0) Ranker.default else Weights(rng.nextDouble(), rng.nextDouble(), rng.nextDouble(), rng.nextDouble())
      for (edOnly <- Seq(false, true))
        assert(Ranker.rank(original, withDup, column, w, edOnly) ==
          RankerReference.rank(original, withDup, column, w, edOnly), s"'$original' in $column")
    }
  }
}
