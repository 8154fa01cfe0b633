package repro.core.repair

import org.scalatest.funsuite.AnyFunSuite
import repro.core.repair.DecisionTree.{DTree, Leaf, Node}
import repro.core.repair.Predicates.Feature
import scala.util.Random

/** A readable `DecisionTree.learn`: the greedy search over partitioned
  * example vectors, rebuilt for each depth 0, 1, 2 and 3 and scored by
  * predicting every example. The bitset kernel is checked against it.
  */
object DecisionTreeReference {

  def learn(feats: Vector[Feature], examples: Vector[(Int, String)], alpha: Double): Option[DTree] = {
    def accuracy(t: DTree): Double =
      examples.count { case (r, l) => t.predict(r, feats) == l }.toDouble / examples.size

    if (examples.isEmpty) None
    else (0 to 3).iterator.map(greedy(feats, examples, _)).find(accuracy(_) >= alpha)
  }

  /** Most frequent label, ties by label. */
  private def majority(labels: Vector[String]): String =
    labels.groupBy(identity).view.mapValues(_.size).toVector
      .sortBy { case (l, c) => (-c, l) }.head._1

  private def greedy(feats: Vector[Feature], examples: Vector[(Int, String)], depth: Int): DTree = {
    lazy val leaf = Leaf(majority(examples.map(_._2)))
    if (depth == 0 || miss(examples) == 0) leaf
    else
      feats.indices.map { fi =>
        val (tr, fl) = examples.partition { case (r, _) => feats(fi).values(r) }
        (fi, miss(tr) + miss(fl), tr, fl)
      }.minByOption { case (fi, err, _, _) => (err, fi) }
        .collect { case (fi, _, tr, fl) if tr.nonEmpty && fl.nonEmpty =>
          Node(fi, greedy(feats, tr, depth - 1), greedy(feats, fl, depth - 1))
        }
        .getOrElse(leaf)
  }

  private def miss(ex: Vector[(Int, String)]): Int =
    if (ex.isEmpty) 0 else ex.size - ex.groupBy(_._2).values.map(_.size).max
}

class DecisionTreeDifferentialSpec extends AnyFunSuite {

  private val Labels = Vector("PRO", "CAT", "x", "A")
  private val Alphas = Vector(0.4, 0.6, 0.8, 1.0)

  /** One random (features, examples, alpha) case over a table of 1–90 rows. */
  private def randomCase(rng: Random): (Vector[Feature], Vector[(Int, String)], Double) = {
    val nRows = 1 + rng.nextInt(90)
    // examples: distinct rows in random order, as `Concretizer` sends them
    val rows = rng.shuffle(Vector.range(0, nRows)).take(1 + rng.nextInt(nRows))
    val onExamples = rows.toSet

    val feats = Vector.newBuilder[Feature]
    val built = scala.collection.mutable.ArrayBuffer.empty[Array[Boolean]]
    for (f <- 0 until rng.nextInt(7)) {
      val values = rng.nextInt(6) match {
        case 0 if built.nonEmpty => // equal on the examples, different elsewhere
          val src = built(rng.nextInt(built.size))
          Array.tabulate(nRows)(r => if (onExamples(r)) src(r) else rng.nextBoolean())
        case 1 => // constant on the examples
          val c = rng.nextBoolean()
          Array.tabulate(nRows)(r => if (onExamples(r)) c else rng.nextBoolean())
        case _ =>
          val density = Vector(0.1, 0.5, 0.9)(rng.nextInt(3))
          Array.fill(nRows)(rng.nextDouble() < density)
      }
      built += values
      feats += Feature(s"f$f", values)
    }

    // labels: a function of up to three features plus noise, or random
    val keys   = rng.shuffle(built.indices.toVector).take(1 + rng.nextInt(3))
    val nested = rng.nextBoolean() // if keys(0) then A else if keys(1) then B ...
    val pool   = if (nested) Labels.take(keys.size + 1) else Labels.take(1 + rng.nextInt(Labels.size))
    val noise  = Vector(0.0, 0.0, 0.1, 0.3, 1.0)(rng.nextInt(5))
    val table  = Vector.fill(8)(pool(rng.nextInt(pool.size)))
    def byFeatures(r: Int): String =
      if (nested) pool(keys.indexWhere(built(_)(r)) match { case -1 => keys.size; case i => i })
      else table(keys.zipWithIndex.map { case (k, b) => if (built(k)(r)) 1 << b else 0 }.sum)
    val ex = rows.map(r => (r, if (rng.nextDouble() < noise) pool(rng.nextInt(pool.size)) else byFeatures(r)))
    (feats.result(), ex, Alphas(rng.nextInt(Alphas.size)))
  }

  test("learn returns the reference's tree on random features, labels and alpha") {
    val rng    = new Random(20261018L)
    val shapes = Array.fill(5)(0) // leaf, depth 1, 2, 3, None
    for (i <- 0 until 30000) {
      val (feats, ex, alpha) = randomCase(rng)
      val want = DecisionTreeReference.learn(feats, ex, alpha)
      assert(DecisionTree.learn(feats, ex, alpha) == want,
        s"case $i: feats=${feats.map(_.values.toSeq)} ex=$ex alpha=$alpha")
      shapes(want.fold(4)(_.depth)) += 1
    }
    info(shapes.mkString("leaf/d1/d2/d3/None = ", "/", ""))
    assert(shapes.forall(_ >= 100), shapes.mkString("leaf/d1/d2/d3/None = ", "/", ""))
  }
}
