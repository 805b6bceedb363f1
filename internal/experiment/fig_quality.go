package experiment

import (
	"fmt"

	"odyssey/internal/app/env"
	"odyssey/internal/app/speech"
	"odyssey/internal/sim"
	"odyssey/internal/stats"
)

// QualityRow pairs a speech configuration's energy with its recognition
// quality — the tradeoff behind the paper's observation that "although
// reducing fidelity limits the number of words available, the word-error
// rate may not increase".
type QualityRow struct {
	Config speech.Config
	Energy stats.Summary
	// MeanWER is the mean word-error rate across the utterances.
	MeanWER float64
	// WorstWER is the highest per-utterance error rate.
	WorstWER float64
}

// QualityEnergy measures the energy/quality frontier of the speech
// recognizer across execution modes and vocabularies.
func QualityEnergy(trials int) []QualityRow {
	utts := speech.StandardUtterances()
	configs := []speech.Config{
		{Mode: speech.Local, Vocab: speech.FullVocab},
		{Mode: speech.Local, Vocab: speech.ReducedVocab},
		{Mode: speech.Remote, Vocab: speech.FullVocab},
		{Mode: speech.Remote, Vocab: speech.ReducedVocab},
		{Mode: speech.Hybrid, Vocab: speech.FullVocab},
		{Mode: speech.Hybrid, Vocab: speech.ReducedVocab},
	}
	// Run i of a config is trial i/len(utts) of utterance i%len(utts).
	energies := sweep(len(configs), trials*len(utts), func(ci, i int) float64 {
		t, ui := i/len(utts), i%len(utts)
		return runTrial(int64(2900+ci*31+t*7+ui), 1, speechSetup, func(rig *env.Rig, p *sim.Proc) {
			speech.Recognize(rig, p, utts[ui], configs[ci])
		}).energy
	})
	rows := make([]QualityRow, 0, len(configs))
	for ci, cfg := range configs {
		werSum, werWorst := 0.0, 0.0
		for _, u := range utts {
			wer := speech.WordErrorRate(u, cfg)
			werSum += wer / float64(len(utts))
			if wer > werWorst {
				werWorst = wer
			}
		}
		rows = append(rows, QualityRow{
			Config:   cfg,
			Energy:   stats.Summarize(energies[ci]),
			MeanWER:  werSum,
			WorstWER: werWorst,
		})
	}
	return rows
}

// QualityTable renders the frontier.
func QualityTable(rows []QualityRow) *Table {
	t := &Table{
		Title:   "Extension: speech energy vs recognition quality (per utterance, display off, hw power mgmt)",
		Columns: []string{"Mode", "Vocabulary", "Energy (J)", "Mean WER", "Worst WER"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Config.Mode.String(),
			r.Config.Vocab.String(),
			r.Energy.String(),
			fmt.Sprintf("%.1f%%", r.MeanWER*100),
			fmt.Sprintf("%.1f%%", r.WorstWER*100),
		})
	}
	return t
}
