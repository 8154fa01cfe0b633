package repro.core.repair

import repro.core.repair.Predicates.Feature

/** Small decision trees over boolean features predicting string labels — the
  * concretization constraints of §3.4.
  *
  * Following the paper: trees of varying node count and depth are considered,
  * filtered to training accuracy ≥ α (default 0.8), ranked ascending by
  * (nodes, depth), and the first qualifying tree is kept. We realize this
  * with one greedy search grown to depth 0, 1, 2 and 3 in turn: depth 0 is
  * the majority leaf, and depth 1 is the stump with the fewest errors, so the
  * first depth whose tree qualifies gives the smallest qualifying tree this
  * search reaches.
  */
object DecisionTree {

  sealed trait DTree {
    def predict(row: Int, feats: Vector[Feature]): String
    def nodes: Int
    def depth: Int
  }
  final case class Leaf(label: String) extends DTree {
    def predict(row: Int, feats: Vector[Feature]): String = label
    def nodes: Int = 1
    def depth: Int = 0
  }
  final case class Node(feat: Int, t: DTree, f: DTree) extends DTree {
    def predict(row: Int, feats: Vector[Feature]): String =
      if (feats(feat).values(row)) t.predict(row, feats) else f.predict(row, feats)
    def nodes: Int = 1 + t.nodes + f.nodes
    def depth: Int = 1 + math.max(t.depth, f.depth)
  }

  val DefaultAlpha = 0.8

  /** Learn a tree over `examples` (rowIdx → label) with accuracy ≥ `alpha`;
    * `None` when no tree up to depth 3 qualifies.
    */
  def learn(feats: Vector[Feature], examples: Vector[(Int, String)],
            alpha: Double = DefaultAlpha): Option[DTree] = {
    def accuracy(t: DTree): Double =
      examples.count { case (r, l) => t.predict(r, feats) == l }.toDouble / examples.size

    if (examples.isEmpty) None
    else (0 to 3).iterator.map(greedy(feats, examples, _)).find(accuracy(_) >= alpha)
  }

  /** Distinct `labels`, most frequent first, ties by label. */
  private[repair] def byFrequency(labels: Vector[String]): Vector[String] =
    labels.groupBy(identity).view.mapValues(_.size).toVector
      .sortBy { case (l, c) => (-c, l) }.map(_._1)

  /** Grow a tree on non-empty `examples` to at most `depth`, splitting each
    * node on the feature (lowest index among ties) whose majority children
    * misclassify fewest examples.
    */
  private def greedy(feats: Vector[Feature], examples: Vector[(Int, String)], depth: Int): DTree = {
    lazy val leaf = Leaf(byFrequency(examples.map(_._2)).head)
    if (depth == 0 || miss(examples) == 0) leaf
    else
      feats.indices.map { fi =>
        val (tr, fl) = examples.partition { case (r, _) => feats(fi).values(r) }
        (fi, miss(tr) + miss(fl), tr, fl)
      }.minByOption { case (fi, err, _, _) => (err, fi) }
        // a split never misclassifies more than its parent; zero-gain splits
        // are kept, since deeper levels may still separate xor-like labels
        .collect { case (fi, _, tr, fl) if tr.nonEmpty && fl.nonEmpty =>
          Node(fi, greedy(feats, tr, depth - 1), greedy(feats, fl, depth - 1))
        }
        .getOrElse(leaf)
  }

  private def miss(ex: Vector[(Int, String)]): Int =
    if (ex.isEmpty) 0 else ex.size - ex.groupBy(_._2).values.map(_.size).max
}
